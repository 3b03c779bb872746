package ltdecoup

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/zoo"
)

// instantDigest hashes every instant of tr, label by label in sorted
// order, then every activity's interval, resource by resource in sorted
// order, with FNV-1a.
func instantDigest(tr *observe.Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	labels := slices.Sorted(slices.Values(tr.Labels()))
	for _, l := range labels {
		h.Write([]byte(l))
		for _, x := range tr.Instants(l) {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for _, r := range slices.Sorted(slices.Values(tr.Resources())) {
		h.Write([]byte(r))
		for _, a := range tr.Activities(r) {
			binary.LittleEndian.PutUint64(b[:], uint64(a.Start))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], uint64(a.End))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The loosely-timed run is deterministic, so its kernel work, final time
// and instants are pinned exactly on didactic at three quanta: a change
// to how its processes are scheduled must leave all of them unchanged.
func TestGoldenDidactic(t *testing.T) {
	type golden struct {
		events, activations int64
		final               sim.Time
		digest              uint64
	}
	want := map[sim.Time]golden{
		1:    {6806, 5113, 360725, 0xe48642b5f05b9714},
		100:  {7694, 5697, 376400, 0x85eca9a4f4f189a5},
		1000: {7206, 4409, 802000, 0x4b477fc6d0ad0152},
	}
	for _, q := range []sim.Time{1, 100, 1000} {
		tr := observe.NewTrace("lt")
		res, err := Run(zoo.Didactic(zoo.DidacticSpec{Tokens: 400, Period: 900, Seed: 6}), Options{Quantum: q, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		got := golden{res.Stats.Events(), res.Stats.Activations, res.Stats.FinalTime, instantDigest(tr)}
		if got != want[q] {
			t.Errorf("quantum %d: got %d events, %d activations, final %d, digest %#x; want %+v",
				q, got.events, got.activations, got.final, got.digest, want[q])
		}
	}
}
