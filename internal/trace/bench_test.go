package trace_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// encodedTrace is an n-job Poisson trace (load 0.95, one machine) in
// format f, gzip-compressed when gz.
func encodedTrace(tb testing.TB, n int, f trace.Format, gz bool) []byte {
	tb.Helper()
	in := workload.PoissonLoad(stats.NewRNG(1), n, 1, 0.95, workload.ExpSizes{M: 1})
	var buf bytes.Buffer
	if err := trace.Encode(&buf, in.Jobs, f); err != nil {
		tb.Fatal(err)
	}
	if !gz {
		return buf.Bytes()
	}
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	if _, err := zw.Write(buf.Bytes()); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return zb.Bytes()
}

// decodeAll drains a decoder over r and returns the job count.
func decodeAll(tb testing.TB, r io.Reader, f trace.Format) int {
	d := trace.NewDecoder(r, trace.DecodeOptions{Format: f})
	n := 0
	for {
		_, ok, err := d.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestDecodeAllocBudget pins the streaming decoder at 0 allocations per
// job: draining a 1e3-job and a 1e4-job trace must cost the same constant
// number of allocations (the decoder, its scanner buffer, the id bitset
// and, for CSV, the header), in both formats.
func TestDecodeAllocBudget(t *testing.T) {
	for _, f := range []trace.Format{trace.FormatNDJSON, trace.FormatCSV} {
		var allocs []float64
		for _, n := range []int{1_000, 10_000} {
			data := encodedTrace(t, n, f, false)
			rd := bytes.NewReader(data)
			allocs = append(allocs, testing.AllocsPerRun(10, func() {
				rd.Reset(data)
				if got := decodeAll(t, rd, f); got != n {
					t.Fatalf("%v: decoded %d jobs, want %d", f, got, n)
				}
			}))
		}
		t.Logf("%v: %v allocs per decode at n=1e3, %v at n=1e4", f, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%v: %v allocs at n=1e3 but %v at n=1e4: decoding allocates per job", f, allocs[0], allocs[1])
		}
	}
}

// BenchmarkTraceDecode times the streaming decoder per job on a 1e5-job
// trace: NDJSON, CSV, and gzip CSV through MaybeGunzip.
func BenchmarkTraceDecode(b *testing.B) {
	const n = 100_000
	for _, c := range []struct {
		name string
		f    trace.Format
		gz   bool
	}{
		{"ndjson", trace.FormatNDJSON, false},
		{"csv", trace.FormatCSV, false},
		{"csv.gz", trace.FormatCSV, true},
	} {
		data := encodedTrace(b, n, c.f, c.gz)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rd := bytes.NewReader(data)
			for i := 0; i < b.N; i++ {
				rd.Reset(data)
				r, err := trace.MaybeGunzip(rd)
				if err != nil {
					b.Fatal(err)
				}
				if got := decodeAll(b, r, c.f); got != n {
					b.Fatalf("decoded %d jobs, want %d", got, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/job")
		})
	}
}
