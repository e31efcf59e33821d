package check

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

var updateRef = flag.Bool("update-reference", false, "rewrite testdata/reference_digests.txt from the current reference engine")

// refDigestFile pins the reference engine's output bits the way
// fast_digests.txt pins the fast engine's: one line per (family,
// instance), each policy's run summarized as a sha256 prefix over per-job
// Completion/Flow bits, Events and the exact epoch stream (Start, End,
// Alive, RateSum and every epoch's Jobs and Rates).
//
// Every registered policy runs, plus PRIO (on Policies' seeded priority
// table) and GITTINS (exponential service), on five families: the bulk
// seeds under RandomOptions; the same seeds under RandomMachineModel
// (preemption cost kept); the same seeds on an explicit all-ones speed
// vector; a copy of each seed's instance with seed-derived weights spread
// over three orders of magnitude, so PROP's per-job cap binds; and every
// corpus witness.
//
// Regenerate with `go test ./internal/check -run TestReferenceDigests
// -update-reference`, and only in a change that means to alter reference
// engine or policy bits. Pinned for amd64 only, like TestFastDigests.
const refDigestFile = "testdata/reference_digests.txt"

// refDigestFamilies lists the families in file order.
var refDigestFamilies = []struct {
	name string
	opts func(seed uint64) (*core.Instance, core.Options)
}{
	{"bulk", func(seed uint64) (*core.Instance, core.Options) {
		return RandomInstance(seed), RandomOptions(seed)
	}},
	{"hetero", func(seed uint64) (*core.Instance, core.Options) {
		opts := RandomOptions(seed)
		opts.MachineModel = RandomMachineModel(seed, opts.Machines)
		return RandomInstance(seed), opts
	}},
	{"ones", func(seed uint64) (*core.Instance, core.Options) {
		opts := RandomOptions(seed)
		opts.MachineModel.Speeds = make([]float64, opts.Machines)
		for i := range opts.MachineModel.Speeds {
			opts.MachineModel.Speeds[i] = 1
		}
		return RandomInstance(seed), opts
	}},
	{"weighted", func(seed uint64) (*core.Instance, core.Options) {
		return weightedInstance(seed), RandomOptions(seed)
	}},
}

// weightedInstance is RandomInstance(seed) with every job's weight drawn
// from {0.1, 1, 10, 100}: skewed enough that the heaviest alive job's
// proportional share exceeds one machine and PROP's cap binds.
func weightedInstance(seed uint64) *core.Instance {
	in := RandomInstance(seed)
	rng := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	jobs := append([]core.Job(nil), in.Jobs...)
	for i := range jobs {
		jobs[i].Weight = []float64{0.1, 1, 10, 100}[rng.IntN(4)]
	}
	return core.NewInstance(jobs)
}

// refDigestPolicies returns fresh instances of every policy the reference
// digests cover, in line order.
func refDigestPolicies(t *testing.T, seed uint64, gittins core.Policy) []core.Policy {
	t.Helper()
	var pols []core.Policy
	for _, name := range policy.Names() {
		p, err := policy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, p)
	}
	seeded := Policies(seed)
	return append(pols, seeded[len(seeded)-1], gittins) // PRIO, GITTINS
}

func refDigestGittins() core.Policy {
	return policy.NewGittins(func(x float64) float64 { return 1 - math.Exp(-x) }, 20, 500)
}

// refDigestLine runs every policy on (in, opts) on the reference engine and
// returns the family's line for this instance.
func refDigestLine(t *testing.T, family, instance string, in *core.Instance, opts core.Options, pols []core.Policy) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(family + " " + instance)
	for _, p := range pols {
		b.WriteString(" " + p.Name() + "=" + refDigest(t, family+" "+instance, in, p, opts))
	}
	return b.String()
}

// refDigest runs (in, p, opts) on the reference engine with an epoch-hashing
// observer and returns the first 16 hex characters of the sha256 over its
// outputs.
func refDigest(t *testing.T, label string, in *core.Instance, p core.Policy, opts core.Options) string {
	t.Helper()
	d := &refDigester{digester: digester{h: sha256.New()}}
	opts.Observer = d
	res, err := core.Run(in, p, opts)
	if err != nil {
		t.Fatalf("%s %s: %v", label, p.Name(), err)
	}
	d.int(res.Events)
	d.floats(res.Completion)
	d.floats(res.Flow)
	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

// refDigester hashes the exact epoch stream as it is emitted, packing each
// epoch into one buffer so the hash sees one Write per epoch.
type refDigester struct {
	digester
	ep []byte
}

func (d *refDigester) ObserveArrival(float64, int, core.Job)   {}
func (d *refDigester) ObserveCompletion(float64, int, float64) {}
func (d *refDigester) ObserveDone(*core.Result)                {}

func (d *refDigester) ObserveEpoch(e *core.Epoch) {
	b := d.ep[:0]
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Start))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.End))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Alive))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.RateSum))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Jobs)))
	for _, j := range e.Jobs {
		b = binary.LittleEndian.AppendUint64(b, uint64(j))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Rates)))
	for _, r := range e.Rates {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
	}
	d.h.Write(b)
	d.ep = b
}

func refDigestLines(t *testing.T) []string {
	gittins := refDigestGittins()
	var lines []string
	for _, f := range refDigestFamilies {
		for seed := uint64(0); seed < digestSeeds; seed++ {
			in, opts := f.opts(seed)
			lines = append(lines, refDigestLine(t, f.name, itoa(int(seed)), in, opts, refDigestPolicies(t, seed, gittins)))
		}
	}
	for _, e := range loadDigestCorpus(t) {
		opts := core.Options{Machines: e.Machines, Speed: e.Speed,
			MachineModel: core.Machines{Speeds: e.MachineSpeeds, PreemptCost: e.PreemptCost}}
		lines = append(lines, refDigestLine(t, "corpus", e.Name, e.Instance(), opts, refDigestPolicies(t, e.Seed, gittins)))
	}
	return lines
}

// TestReferenceDigests holds the reference engine, under every policy, to
// the committed digests bit for bit; with -update-reference it rewrites the
// file.
func TestReferenceDigests(t *testing.T) {
	skipUnlessAMD64(t)
	got := refDigestLines(t)
	if *updateRef {
		if err := os.WriteFile(refDigestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digest lines to %s", len(got), refDigestFile)
		return
	}
	raw, err := os.ReadFile(refDigestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-reference)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d reference digest lines computed, %s has %d", len(got), refDigestFile, len(want))
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
		t.Fatalf("%d of %d reference digest lines differ: the reference engine's output bits changed", bad, len(want))
	}
	t.Logf("%d reference digest lines match %s", len(got), refDigestFile)
}
