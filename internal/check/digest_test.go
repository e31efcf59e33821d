package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/fast_digests.txt from the current fast engine")

// digestFile pins the fast engine's output bits: one line per (family,
// instance), each policy's run summarized as a sha256 prefix.
const digestFile = "testdata/fast_digests.txt"

// The fast engine's bit-level oracle. For every fast-eligible policy on the
// 1200-seed bulk set, the 1200-seed heterogeneous set (RR on every seed, the
// rank policies on the seeds without a preemption cost) and every
// committed hunt witness it hashes everything the batched drains emit:
// per-job Completion/Flow bits and Events of the materialized run, the
// StreamResult of the streaming run, the full exact-epoch observer stream
// and ℓ1–ℓ3 StreamNorm on both sinks, and the coarse-mode ℓ1–ℓ3 and event
// counts. Any change to a single output bit changes a digest; the
// reference-engine walls (TestEnginesAgree*) remain the semantic oracle at
// 1e-6. TestFastDigests owns the file's layout and -update; one wall per
// family checks that family's digests.
//
// Regenerate with `go test ./internal/check -run TestFastDigests -update`,
// and only in a change that means to alter engine bits.
//
// Pinned for amd64 only: the Go spec lets a compiler fuse x*y+z into one
// FMA, which arm64 does and amd64 does not, so other architectures may
// legitimately differ in the last bit.

// digestFamilies lists the families in file order.
var digestFamilies = []struct {
	name  string
	lines func(t *testing.T) []string
}{
	{"bulk", bulkDigestLines},
	{"hetero", heteroDigestLines},
	{"corpus", corpusDigestLines},
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("fast-engine digests are pinned on amd64; %s may fuse multiply-adds (FMA) and differ in the last bit", runtime.GOARCH)
	}
}

// TestFastDigests checks that the digest file holds exactly one line per
// (family, instance), families in order; with -update it recomputes every
// family and rewrites the file.
func TestFastDigests(t *testing.T) {
	skipUnlessAMD64(t)
	if *update {
		var got []string
		for _, f := range digestFamilies {
			got = append(got, f.lines(t)...)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digest lines to %s", len(got), digestFile)
		return
	}
	var keys []string
	for seed := 0; seed < digestSeeds; seed++ {
		keys = append(keys, "bulk "+itoa(seed))
	}
	for seed := 0; seed < digestSeeds; seed++ {
		keys = append(keys, "hetero "+itoa(seed))
	}
	for _, e := range loadDigestCorpus(t) {
		keys = append(keys, "corpus "+e.Name)
	}
	lines := readDigestLines(t)
	if len(lines) != len(keys) {
		t.Fatalf("%s has %d lines, want %d (one per family instance)", digestFile, len(lines), len(keys))
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, keys[i]+" ") {
			t.Fatalf("%s line %d is %.40q…, want key %q", digestFile, i+1, l, keys[i])
		}
	}
	t.Logf("%s holds %d lines in family order", digestFile, len(lines))
}

// TestBatchedWallBulk holds the batched drains to the committed digests on
// the 1200-seed random corpus under every fast-eligible policy, both sinks
// and both epoch modes.
func TestBatchedWallBulk(t *testing.T) { checkDigestFamily(t, "bulk", bulkDigestLines) }

// TestBatchedWallHeteroBulk holds RR's water-filling drain and the
// rank-array top-m drain to the committed digests under the 1200 random
// heterogeneous machine models.
func TestBatchedWallHeteroBulk(t *testing.T) { checkDigestFamily(t, "hetero", heteroDigestLines) }

// TestBatchedWallCorpus holds the batched drains to the committed digests
// on every hunt regression witness — the adversarial instances a
// bulk-advance bug would most plausibly perturb.
func TestBatchedWallCorpus(t *testing.T) { checkDigestFamily(t, "corpus", corpusDigestLines) }

// checkDigestFamily compares one family's computed digest lines with that
// family's lines in the file, in order.
func checkDigestFamily(t *testing.T, family string, compute func(t *testing.T) []string) {
	t.Helper()
	skipUnlessAMD64(t)
	var want []string
	for _, l := range readDigestLines(t) {
		if strings.HasPrefix(l, family+" ") {
			want = append(want, l)
		}
	}
	got := compute(t)
	if len(got) != len(want) {
		t.Errorf("%d %s digest lines computed, %s has %d", len(got), family, digestFile, len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] == want[i] {
			continue
		}
		if bad++; bad <= 10 {
			t.Errorf("digest mismatch\n got: %s\nwant: %s", got[i], want[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d %s digest lines differ: the fast engine's output bits changed", bad, len(want), family)
	}
	t.Logf("%d %s digest lines match %s", len(got), family, digestFile)
}

func readDigestLines(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

const digestSeeds = 1200

// digestLine runs every fast-eligible policy in pols on (in, opts) and
// returns the family's line for this instance.
func digestLine(t *testing.T, family, instance string, in *core.Instance, opts core.Options, pols []core.Policy) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(family + " " + instance)
	for _, p := range pols {
		if !fast.Eligible(p, opts) {
			continue
		}
		b.WriteString(" " + p.Name() + "=" + fastDigest(t, family+" "+instance, in, p, opts))
	}
	return b.String()
}

func bulkDigestLines(t *testing.T) []string {
	var lines []string
	for seed := uint64(0); seed < digestSeeds; seed++ {
		lines = append(lines, digestLine(t, "bulk", itoa(int(seed)), RandomInstance(seed), RandomOptions(seed), Policies(seed)))
	}
	return lines
}

func heteroDigestLines(t *testing.T) []string {
	var lines []string
	for seed := uint64(0); seed < digestSeeds; seed++ {
		opts := RandomOptions(seed)
		opts.MachineModel = RandomMachineModel(seed, opts.Machines)
		lines = append(lines, digestLine(t, "hetero", itoa(int(seed)), RandomInstance(seed), opts, Policies(seed)))
	}
	return lines
}

func corpusDigestLines(t *testing.T) []string {
	var lines []string
	for _, e := range loadDigestCorpus(t) {
		lines = append(lines, digestLine(t, "corpus", e.Name, e.Instance(), core.Options{Machines: e.Machines, Speed: e.Speed}, Policies(e.Seed)))
	}
	return lines
}

func loadDigestCorpus(t *testing.T) []*hunt.Entry {
	t.Helper()
	entries, err := hunt.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found: the committed witnesses are missing")
	}
	return entries
}

// fastDigest runs (in, p, opts) on the fast engine — materialized and
// streaming with exact-epoch observers, then materialized and streaming with
// only coarse-tolerant StreamNorm attached — and returns the first 16 hex
// characters of the sha256 over every output.
func fastDigest(t *testing.T, label string, in *core.Instance, p core.Policy, opts core.Options) string {
	t.Helper()
	opts.Engine = core.EngineFast
	d := digester{h: sha256.New()}

	mo := opts
	mrec := &wallObs{}
	msn := metrics.NewStreamNorm(1, 2, 3)
	mo.Observer = core.Multi(msn, mrec)
	res, err := fast.Run(in, p, mo)
	if err != nil {
		t.Fatalf("%s %s: materialized run: %v", label, p.Name(), err)
	}
	d.int(res.Events)
	d.floats(res.Completion)
	d.floats(res.Flow)
	d.norms(msn)
	d.obs(mrec)

	so := opts
	srec := &wallObs{}
	ssn := metrics.NewStreamNorm(1, 2, 3)
	so.Observer = core.Multi(ssn, srec)
	sum, err := fast.RunStream(core.NewInstanceSource(in), p, so, nil)
	if err != nil {
		t.Fatalf("%s %s: streaming run: %v", label, p.Name(), err)
	}
	d.sum(sum)
	d.norms(ssn)
	d.obs(srec)
	// The digest leaves the Coarse flag out, so check it directly: a
	// wallObs does not opt into coarse epochs, so every epoch it sees
	// must be exact.
	noCoarse(t, label+" "+p.Name()+" materialized", mrec)
	noCoarse(t, label+" "+p.Name()+" streaming", srec)

	// Coarse mode: StreamNorm opts into coarse epochs, so the drains skip
	// per-event epoch emission; norms and event counts must not move.
	co := opts
	csn := metrics.NewStreamNorm(1, 2, 3)
	co.Observer = csn
	cres, err := fast.Run(in, p, co)
	if err != nil {
		t.Fatalf("%s %s: coarse materialized run: %v", label, p.Name(), err)
	}
	d.int(cres.Events)
	d.norms(csn)
	csn = metrics.NewStreamNorm(1, 2, 3)
	co.Observer = csn
	csum, err := fast.RunStream(core.NewInstanceSource(in), p, co, nil)
	if err != nil {
		t.Fatalf("%s %s: coarse streaming run: %v", label, p.Name(), err)
	}
	d.sum(csum)
	d.norms(csn)

	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

// noCoarse fails the test if o, an observer that does not tolerate coarse
// epochs, was handed one.
func noCoarse(t *testing.T, label string, o *wallObs) {
	t.Helper()
	for i, e := range o.eps {
		if e.Coarse {
			t.Fatalf("%s: epoch %d is Coarse, but the observer takes exact epochs only", label, i)
		}
	}
}

// digester feeds fixed-width little-endian encodings of run outputs into a
// hash; floats go in as their IEEE-754 bits, slices and strings with their
// lengths first so adjacent fields cannot alias.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) int(v int)       { d.u64(uint64(int64(v))) }
func (d *digester) float(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digester) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.float(x)
	}
}

func (d *digester) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d *digester) norms(sn *metrics.StreamNorm) {
	for _, k := range []int{1, 2, 3} {
		d.float(sn.Norm(k))
	}
}

func (d *digester) sum(s core.StreamResult) {
	d.str(s.Policy)
	d.int(s.Machines)
	d.float(s.Speed)
	d.floats(s.MachineModel.Speeds)
	d.float(s.MachineModel.PreemptCost)
	d.int(s.N)
	d.int(s.Completed)
	d.int(s.Events)
	d.float(s.Makespan)
	d.float(s.MaxFlow)
}

func (d *digester) obs(o *wallObs) {
	d.floats(o.arrT)
	d.ints(o.arrJ)
	d.floats(o.arrR)
	d.floats(o.arrS)
	d.int(len(o.eps))
	for _, e := range o.eps {
		d.float(e.Start)
		d.float(e.End)
		d.int(e.Alive)
		d.float(e.RateSum)
	}
	d.floats(o.compT)
	d.ints(o.compJ)
	d.floats(o.flow)
	d.int(o.done)
	d.str(o.doneP)
	d.int(o.doneE)
}
