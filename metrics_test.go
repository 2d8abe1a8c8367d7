package alp_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/obs"
)

// updatingGolden reports whether -update-golden (registered by the
// in-package golden test of this binary) was passed.
func updatingGolden() bool {
	f := flag.Lookup("update-golden")
	return f != nil && f.Value.String() == "true"
}

// goldenCounterValue is the value counter id reaches in one fillGolden
// pass: distinct per counter, so a reordered or renamed counter moves a
// number in the fixtures rather than hiding.
func goldenCounterValue(id obs.Counter) int64 { return 101 + 13*int64(id) }

// goldenBitWidths are the FFOR widths of the golden encoded vectors
// that land in the bit-width histogram.
var goldenBitWidths = []uint{0, 3, 3, 17, 64}

// fillGolden drives every counter of c up by scale×goldenCounterValue,
// the bit-width histogram by scale×goldenBitWidths, and every latency
// histogram by a few scale-dependent samples. Deterministic: no clock,
// no PRNG.
func fillGolden(c *obs.Collector, scale int64) {
	for id := obs.Counter(0); id < obs.NumCounters; id++ {
		c.Add(id, scale*goldenCounterValue(id))
	}
	widths := int64(len(goldenBitWidths)) * scale
	c.Add(obs.VectorsEncoded, -widths) // VectorEncoded counts these vectors again
	for i := int64(0); i < widths; i++ {
		c.VectorEncoded(0, 0, goldenBitWidths[i%int64(len(goldenBitWidths))])
	}
	for k := int64(1); k <= scale*goldenCounterValue(obs.ClusterScatters); k++ {
		c.Observe(obs.HistClusterFanout, 1+k%4) // one fan-out width per scatter
	}
	for h := obs.HistID(0); h < obs.NumHists; h++ {
		if h == obs.HistClusterFanout {
			continue
		}
		for j := int64(0); j < 2+int64(h)%4; j++ {
			c.Observe(h, scale*(int64(h)+1)*(900+j*j*7919))
		}
	}
}

// goldenHistory records six scrapes of a growing golden collector at a
// fixed clock into a store sealing every four samples: one sealed
// window plus a two-sample hot tail.
func goldenHistory(t *testing.T) []byte {
	t.Helper()
	c := &obs.Collector{}
	var tick int64
	st := metricstore.New(metricstore.Options{
		Interval:       10 * time.Millisecond,
		WindowSamples:  4,
		RetentionBytes: 1 << 20,
		Source:         c.Snapshot,
		Now:            func() time.Time { return time.UnixMicro(1_700_000_000_000_000 + 10_000*tick) },
	})
	for tick = 1; tick <= 6; tick++ {
		fillGolden(c, tick)
		st.ScrapeOnce()
	}
	var b bytes.Buffer
	if _, err := st.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkGolden compares got against testdata/golden/name byte for byte,
// rewriting the fixture first under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if updatingGolden() {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from its golden fixture (%d vs %d bytes): the metrics schema changed", name, len(got), len(want))
	}
}

// TestGoldenMetricsSchema pins every metrics surface byte for byte:
// the /metrics JSON, the /metrics.prom exposition and the ALPM history
// snapshot of a deterministic collector. The counter order is the ALPM
// series order, so a reordered counter table fails here.
func TestGoldenMetricsSchema(t *testing.T) {
	c := &obs.Collector{}
	fillGolden(c, 1)
	snap := c.Snapshot()

	t.Run("metrics.json", func(t *testing.T) {
		checkGolden(t, "metrics.json", []byte(snap.JSON()))
	})
	t.Run("metrics.prom", func(t *testing.T) {
		var b bytes.Buffer
		if err := snap.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "metrics.prom", b.Bytes())
	})
	t.Run("history.alpm", func(t *testing.T) {
		got := goldenHistory(t)
		checkGolden(t, "history.alpm", got)
		st, err := metricstore.ReadStore(got)
		if err != nil {
			t.Fatal(err)
		}
		if s := st.Stats(); s.SealedWindows != 1 || s.HotSamples != 2 {
			t.Fatalf("golden history holds %d sealed windows and %d hot samples, want 1 and 2", s.SealedWindows, s.HotSamples)
		}
		var again bytes.Buffer
		if _, err := st.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got) {
			t.Fatal("golden history does not re-serialize byte-identically")
		}
	})
}

// FuzzReadStore feeds arbitrary bytes to the ALPM snapshot reader that
// `alpfile metrics` opens. Contract: an error or a store, never a
// panic, and never an allocation out of proportion to the input. Each
// input is also tried re-signed (its last four bytes replaced by the
// CRC-32C of the rest), so mutations reach the parser behind the
// checksum. An accepted snapshot must survive a second round trip
// byte-identically.
func FuzzReadStore(f *testing.F) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 8 {
			signed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(signed[len(signed)-4:], crc32.Checksum(signed[:len(signed)-4], castagnoli))
			inputs = append(inputs, signed)
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := metricstore.ReadStore(in)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20+1024*uint64(len(in)) {
				t.Fatalf("ReadStore allocated %d bytes for a %d-byte input", alloc, len(in))
			}
			if err != nil {
				continue
			}
			var once, twice bytes.Buffer
			if _, err := st.WriteTo(&once); err != nil {
				t.Fatal(err)
			}
			back, err := metricstore.ReadStore(once.Bytes())
			if err != nil {
				t.Fatalf("re-serialized snapshot does not load: %v", err)
			}
			if _, err := back.WriteTo(&twice); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatal("accepted snapshot is not stable across a second round trip")
			}
		}
	})
}
