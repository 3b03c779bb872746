package core

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

// BenchmarkBatchLanes measures the per-lane cost of 16 lanes × 1000
// tokens of one shape four ways: one kernel-free RunBatch, a scalar
// Compute per lane (the adaptive engine), a scalar Run per lane (the
// equivalent model) and the bare BatchEvaluator.Step fed the source
// schedules. Every variant reports ms/lane.
//
//	go test ./internal/core -run '^$' -bench BatchLanes
func BenchmarkBatchLanes(b *testing.B) {
	const lanes, tokens = 16, 1000
	shapes := []struct {
		name  string
		build func(l int) *model.Architecture
	}{
		{"didactic", func(l int) *model.Architecture {
			return zoo.DidacticChain(1, zoo.DidacticSpec{Tokens: tokens, Period: maxplus.T(1200 + 20*(l%4)), Seed: int64(l + 1)})
		}},
		{"chain4", func(l int) *model.Architecture {
			return zoo.DidacticChain(4, zoo.DidacticSpec{Tokens: tokens, Period: maxplus.T(1200 + 20*(l%4)), Seed: int64(l + 1)})
		}},
		{"pipeline60", func(l int) *model.Architecture {
			return zoo.Pipeline(zoo.PipelineSpec{XSize: 60, Tokens: tokens, Period: maxplus.T(600 + 10*(l%4)), Seed: int64(l + 1)})
		}},
	}
	for _, sh := range shapes {
		archs := make([]*model.Architecture, lanes)
		for l := range archs {
			archs[l] = sh.build(l)
		}
		base, err := derive.Derive(archs[0], derive.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := derive.RebindBatch(base, archs)
		if err != nil {
			b.Fatal(err)
		}
		perLane := func(b *testing.B, run func() error) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes)/1e6, "ms/lane")
		}
		scalar := func(run func(m *Model) error) func() error {
			return func() error {
				for _, r := range res {
					m, err := New(r)
					if err != nil {
						return err
					}
					if err := run(m); err != nil {
						return err
					}
				}
				return nil
			}
		}
		prefix := fmt.Sprintf("%s-%dnodes/", sh.name, base.Graph.NodeCountWithDelays())
		b.Run(prefix+"batch", func(b *testing.B) {
			perLane(b, func() error {
				_, _, err := RunBatch(res, BatchOptions{})
				return err
			})
		})
		b.Run(prefix+"compute", func(b *testing.B) {
			perLane(b, scalar(func(m *Model) error {
				_, err := m.Compute(context.Background(), Options{}, nil)
				return err
			}))
		})
		b.Run(prefix+"equivalent", func(b *testing.B) {
			perLane(b, scalar(func(m *Model) error {
				_, err := m.Run(Options{})
				return err
			}))
		})
		b.Run(prefix+"bare-step", func(b *testing.B) {
			progs := make([]*tdg.Program, lanes)
			for l, r := range res {
				progs[l] = r.Program()
			}
			u := make([]maxplus.T, lanes*len(base.Inputs))
			perLane(b, func() error {
				be, err := tdg.NewBatchEvaluator(progs)
				if err != nil {
					return err
				}
				defer be.Release()
				for k := 0; k < tokens; k++ {
					for l, r := range res {
						for i, ib := range r.Inputs {
							u[i*lanes+l] = ib.Source.Schedule(k)
						}
					}
					if _, err := be.Step(u); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}
