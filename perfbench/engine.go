package main

import (
	"fmt"
	"runtime"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// engineSpec is one engine workload: a paper circuit with its fixed
// stimulus, run by the sequential oracle and by one parallel configuration
// in alternating iterations. A run is a series of rounds; a round's set-up
// builds the systems for its pairs, then runs them.
type engineSpec struct {
	name     string
	build    func() *circuits.Circuit
	parallel func(c *circuits.Circuit, workers int) pdes.Config
	shard    bool // run the parallel side on pdes.ShardSystem, one shard per worker
	pairs    int  // seq+par pairs per round
	// Committed events and trace records of one run. The stimulus is fixed,
	// so these are exact: any other value means a changed workload or a
	// kernel that no longer commits the same trace.
	events  uint64
	entries int
	// exactPar names the parallel counters this configuration makes exact.
	exactPar map[string]bool
}

// gateIIR is the paper's gate-level IIR under cons-shard: conservative with
// lookahead and GVTAdapt, one shard per worker, as the cons-shard cell of
// benchfigs -wallclock.
func gateIIR() engineSpec {
	return engineSpec{
		name:  "gate-iir",
		build: func() *circuits.Circuit { return circuits.BuildIIR(circuits.IIROpts{Cycles: 6}) },
		parallel: func(_ *circuits.Circuit, w int) pdes.Config {
			return pdes.Config{Protocol: pdes.ProtoConservative, Lookahead: true, GVTAdapt: true, Workers: w}
		},
		shard:   true,
		pairs:   1,
		events:  1225577,
		entries: 171686,
		// No rollbacks and a fixed partition: every event and every message
		// across the shard cut happens on every run. Null messages and GVT
		// rounds depend on timing.
		exactPar: map[string]bool{"par.events_executed": true, "par.remote_msgs": true, "par.rollbacks": true},
	}
}

// fsmDynamic is the paper's zero-delay FSM under the unsharded dynamic
// protocol, with the optimism bound the dynamic cell of benchfigs
// -wallclock applies to delta-delay circuits (four clock half periods).
// A round holds two pairs, so that its set-up builds enough systems to
// take milliseconds (one FSM build takes well under one) while a run still
// has about twenty rounds to take the median of.
func fsmDynamic() engineSpec {
	return engineSpec{
		name:  "fsm-dynamic",
		build: func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{}) },
		parallel: func(c *circuits.Circuit, w int) pdes.Config {
			return pdes.Config{Protocol: pdes.ProtoDynamic, Workers: w, ThrottleWindow: 4 * c.ClockHalf}
		},
		pairs:    2,
		events:   287044,
		entries:  37291,
		exactPar: map[string]bool{},
	}
}

// prepared is one built system, ready to run once.
type prepared struct {
	c       *circuits.Circuit
	horizon vtime.Time
	sys     *pdes.System // what the engine runs: the sharded view when sharded
	orig    *pdes.System // member-level system, for trace rendering
	ss      *pdes.ShardedSystem
}

func (s engineSpec) prepare(sp spanRef, sharded bool, workers int) (*prepared, error) {
	b := sp.child("circuits.build")
	c := s.build()
	b.end()
	k := sp.child("kernel.build")
	sys := c.Design.Build()
	k.end()
	p := &prepared{c: c, horizon: c.DefaultHorizon, sys: sys, orig: sys}
	if sharded {
		sh := sp.child("pdes.shard")
		ss, err := pdes.ShardSystem(sys, workers, pdes.PartitionTopo)
		sh.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		p.sys, p.ss = ss.Sys(), ss
	}
	return p, nil
}

// outcome is one finished run.
type outcome struct {
	wall           time.Duration // the engine call alone
	res            *pdes.Result
	rec            *trace.Recorder
	lines          []string      // the committed trace, rendered in time order
	ttfb, ttlb     time.Duration // engine call start to first and last rendered line
	mallocs, bytes uint64        // heap allocation during the run (traced pairs only)
}

// run simulates p with trace recording on (sequentially when cfg is nil),
// then renders the committed trace in time order, as a user waiting for the
// waveform receives it.
func (p *prepared) run(sp spanRef, cfg *pdes.Config, memstats bool) (outcome, error) {
	rec := trace.NewRecorder()
	var sink pdes.TraceSink = rec
	if p.ss != nil {
		sink = p.ss.WrapSink(rec)
	}
	// Every timed run starts from a collected heap, so garbage left by
	// earlier runs and checks does not decide when its collections fall.
	runtime.GC()
	var before, after runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&before)
	}
	var res *pdes.Result
	var err error
	var s spanRef
	t0 := time.Now()
	if cfg == nil {
		s = sp.child("pdes.run_seq")
		res, err = pdes.RunSequential(p.sys, p.horizon, sink)
	} else {
		s = sp.child("pdes.run_par")
		res, err = pdes.Run(p.sys, *cfg, p.horizon, sink)
	}
	wall := time.Since(t0)
	s.end()
	out := outcome{wall: wall, res: res, rec: rec}
	if memstats {
		runtime.ReadMemStats(&after)
		out.mallocs, out.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	if err != nil {
		return out, err
	}
	out.lines, out.ttfb = render(sp, p.orig, rec, t0)
	out.ttlb = time.Since(t0)
	return out, nil
}

// render is Recorder.Lines, which sorts the committed records and renders
// each one, with the time from t0 to the first rendered line.
func render(sp spanRef, sys *pdes.System, rec *trace.Recorder, t0 time.Time) ([]string, time.Duration) {
	l := sp.child("trace.lines")
	entries := rec.Sorted()
	lines := make([]string, len(entries))
	var first time.Duration
	for i, e := range entries {
		lines[i] = trace.Line(sys, e)
		if i == 0 {
			first = time.Since(t0)
		}
	}
	l.end()
	return lines, first
}

// check verifies a finished run against the circuit's bit-true reference
// model and the workload's exact counts.
func (s engineSpec) check(sp spanRef, p *prepared, o outcome) error {
	v := sp.child("circuits.verify")
	err := p.c.Verify(p.horizon)
	v.end()
	if err != nil {
		return err
	}
	if n := o.rec.Len(); n != s.entries {
		return fmt.Errorf("%d committed trace records, want %d", n, s.entries)
	}
	return nil
}

// sameLines is trace.Equal on already-rendered traces: the parallel
// committed trace must be byte-identical to the sequential oracle's.
func sameLines(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("record %d differs:\n  seq: %s\n  par: %s", i, a[i], b[i])
		}
	}
	return nil
}

// runEngine runs rounds of seq/par pairs until the budget is spent, checks
// every run, and reports the workload's metrics.
func runEngine(s engineSpec, workers int, budget time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	var (
		setupS, seqWall, parWall, speedup []float64
		ttfb, ttlb                        []float64 // parallel sessions, ms
		sessionTime                       time.Duration
		seqEvents, entries                []float64
		seqAllocs, seqBytes               []float64
		parAllocs, parBytes               []float64
		tracedPair, plainPair             []float64
		parCounts                         = map[string][]float64{}
		last                              []any // the last pair's results, held for live_heap_mb
	)
	pair := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		// Set-up, like every timed run, starts from a collected heap, so the
		// previous round's garbage does not decide whether a collection
		// falls inside it.
		runtime.GC()
		setup := tr.root(fmt.Sprintf("round%d", round), "setup")
		t0 := time.Now()
		seqs := make([]*prepared, s.pairs)
		pars := make([]*prepared, s.pairs)
		for i := 0; i < s.pairs; i++ {
			var err error
			if seqs[i], err = s.prepare(setup, false, workers); err != nil {
				return nil, err
			}
			if pars[i], err = s.prepare(setup, s.shard, workers); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setup.end()

		for i := 0; i < s.pairs; i++ {
			// In the traced run every other pair records spans and heap
			// statistics; the pairs in between give the tracing overhead.
			var ptr *tracer
			if tr != nil && pair%2 == 0 {
				ptr = tr
			}
			pairStart := time.Now()
			sp := ptr.root(fmt.Sprintf("pair%d", pair), "pair")
			pair++
			rep.attempted += 2

			sq, pr := seqs[i], pars[i]
			seqs[i], pars[i] = nil, nil
			so, err := sq.run(sp, nil, ptr != nil)
			var seqLines []string
			if err == nil {
				if so.res.Metrics.Events != s.events {
					err = fmt.Errorf("%d committed events, want %d", so.res.Metrics.Events, s.events)
				} else if err = s.check(sp, sq, so); err == nil {
					seqLines = so.lines
				}
			}
			if err != nil {
				rep.fail("%s seq pair %d: %v", s.name, pair, err)
			} else {
				seqWall = append(seqWall, so.wall.Seconds())
				seqEvents = append(seqEvents, float64(so.res.Metrics.Events))
				entries = append(entries, float64(so.rec.Len()))
				if ptr != nil {
					seqAllocs = append(seqAllocs, float64(so.mallocs)/float64(s.events))
					seqBytes = append(seqBytes, float64(so.bytes)/float64(s.events))
				}
			}

			cfg := s.parallel(pr.c, workers)
			po, err := pr.run(sp, &cfg, ptr != nil)
			if err == nil {
				if err = s.check(sp, pr, po); err == nil && seqLines != nil {
					err = sameLines(seqLines, po.lines)
				}
			}
			if err != nil {
				rep.fail("%s par pair %d: %v", s.name, pair, err)
			} else {
				parWall = append(parWall, po.wall.Seconds())
				ttfb = append(ttfb, ms(po.ttfb))
				ttlb = append(ttlb, ms(po.ttlb))
				sessionTime += po.ttlb
				m := po.res.Metrics
				if seqLines != nil {
					speedup = append(speedup, so.wall.Seconds()/po.wall.Seconds())
				}
				for name, v := range map[string]uint64{
					"par.events_executed": m.Events, "par.gvt_rounds": m.GVTRounds,
					"par.null_msgs": m.Nulls, "par.remote_msgs": m.RemoteMsgs,
					"par.rollbacks": m.Rollbacks, "par.rolled_back": m.RolledBack,
					"par.state_saves": m.StateSaves, "par.antis": m.Antis,
				} {
					parCounts[name] = append(parCounts[name], float64(v))
				}
				parCounts["par.efficiency"] = append(parCounts["par.efficiency"], float64(s.events)/float64(m.Events))
				if m.GVTRounds > 0 {
					parCounts["par.ms_per_gvt_round"] = append(parCounts["par.ms_per_gvt_round"], ms(po.wall)/float64(m.GVTRounds))
				}
				if ptr != nil {
					parAllocs = append(parAllocs, float64(po.mallocs)/float64(s.events))
					parBytes = append(parBytes, float64(po.bytes)/float64(s.events))
				}
			}
			sp.end()
			if tr != nil {
				if ptr != nil {
					tracedPair = append(tracedPair, time.Since(pairStart).Seconds())
				} else {
					plainPair = append(plainPair, time.Since(pairStart).Seconds())
				}
			}
			last = []any{sq, pr, so, po}
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last)

	if len(seqWall) == 0 || len(parWall) == 0 {
		return rep, nil
	}
	ev := float64(s.events)
	rep.endToEnd("setup_s", median(setupS))
	rep.endToEnd("seq_events_per_s", ev/median(seqWall))
	rep.endToEnd("par_events_per_s", ev/median(parWall))
	rep.endToEnd("live_heap_mb", heap)
	// A session here is one parallel run whose committed trace is rendered
	// to its last line: the engine-level counterpart of a govhdld session.
	rep.endToEnd("sessions_per_s", float64(len(ttlb))/sessionTime.Seconds())
	rep.endToEnd("ttfb_p50_ms", quantile(ttfb, 0.5))
	rep.endToEnd("ttfb_p90_ms", quantile(ttfb, 0.9))
	rep.endToEnd("ttlb_p50_ms", quantile(ttlb, 0.5))
	rep.endToEnd("ttlb_p90_ms", quantile(ttlb, 0.9))
	if tr == nil {
		return rep, nil
	}

	stats, _ := tr.summarize()
	rep.layer("circuits.build_ms", medianMS(stats, "circuits.build"))
	rep.layer("kernel.build_ms", medianMS(stats, "kernel.build"))
	if s.shard {
		rep.layer("pdes.shard_ms", medianMS(stats, "pdes.shard"))
	}
	rep.layer("seq.ns_per_event", 1e9*median(seqWall)/ev)
	rep.layer("seq.allocs_per_event", median(seqAllocs))
	rep.layer("seq.bytes_per_event", median(seqBytes))
	rep.exactCount("seq.events", seqEvents)
	rep.layer("par.ns_per_event", 1e9*median(parWall)/ev)
	rep.layer("par.allocs_per_event", median(parAllocs))
	rep.layer("par.bytes_per_event", median(parBytes))
	for name, xs := range parCounts {
		if s.exactPar[name] {
			rep.exactCount(name, xs)
		} else {
			rep.layer(name, median(xs))
		}
	}
	rep.layer("par.speedup", median(speedup))
	rep.exactCount("trace.entries", entries)
	rep.layer("trace.lines_ns_per_line", 1e6*medianMS(stats, "trace.lines")/float64(s.entries))
	rep.layer("span.overhead_pct", 100*(median(tracedPair)/median(plainPair)-1))
	return rep, nil
}
