package core

import "testing"

// TestFingerprintPinned pins the cache key's hex for four requests. rrserve
// memoizes results under these keys, so any change to what Fingerprint
// hashes (or in which order) must show up here as a deliberate edit.
func TestFingerprintPinned(t *testing.T) {
	in := NewInstance([]Job{
		{ID: 2, Release: 0.5, Size: 3, Weight: 1},
		{ID: 1, Release: 0, Size: 1.25, Weight: 2},
		{ID: 3, Release: 0.5, Size: 0, Weight: 1},
	})
	het := Machines{Speeds: []float64{1, 3}, PreemptCost: 0.5}
	cases := []struct {
		name   string
		policy string
		opts   Options
		want   string
	}{
		{"rr-paper", "RR", Options{Machines: 2, Speed: 1.5},
			"cdc4b5bfe9e87ebec741eefeb6ec48b47a5bed06dd1a206a117161622ac4fc1f"},
		{"rr-paper-reference", "RR", Options{Machines: 2, Speed: 1.5, Engine: EngineReference},
			"7988b341e24194d8b86337f903a6472df8747ef9712610f5bf9ebb1e44f16795"},
		{"srpt-hetero", "SRPT", Options{Machines: 2, Speed: 1, MachineModel: het},
			"73376d1169d8fe59a3e23804e7126de846462620af4ac9b541665cdde75799bb"},
		{"srpt-hetero-fast", "SRPT", Options{Machines: 2, Speed: 1, MachineModel: het, Engine: EngineFast},
			"1b6ffe5bca4cff3ce9fb050d176febc42867096ffd483f509a092c2eeaf15810"},
	}
	for _, tc := range cases {
		if got := Fingerprint(in, tc.policy, tc.opts); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
