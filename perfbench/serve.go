package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"govhdl"
	"govhdl/internal/runopts"
	"govhdl/internal/server"
	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
)

const (
	// epochSessions is the number of sessions one server serves in the
	// measured loop. live_heap_mb is taken after the first epoch, so it
	// measures a fixed amount of work, not a fixed duration.
	epochSessions = 50
	// minSessions is the fewest sessions a run may serve: ten must lie
	// beyond the p90.
	minSessions = 100
)

// liveServer is govhdld's handler on a loopback listener.
type liveServer struct {
	sv   *server.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := server.New(server.Config{})
	ls := &liveServer{sv: sv, hs: &http.Server{Handler: sv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop closes the listener, waits for in-flight handlers and sessions, and
// waits for the serve goroutine.
func (ls *liveServer) stop() error {
	err := ls.hs.Shutdown(context.Background())
	ls.sv.Shutdown()
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// sample is one session of the closed loop, as its client saw it.
type sample struct {
	idx        int // position in the corpus submit sequence
	id         string
	epoch      int
	key        string
	hit        bool
	traced     bool
	err        error
	rejected   bool
	ttfb, ttlb time.Duration // POST start to first and last trace byte
	hash       [32]byte
	eng        *sessionStats // the server's engine figures, from /metrics
}

// sessionStats is one finished session's engine figures as /metrics shows
// them: the wall time of the server's pdes.Run and its Result.Metrics
// counters (events, rollbacks, rolledback, antis, nulls, remote, gvt, ...).
type sessionStats struct {
	wall   time.Duration
	counts map[string]float64
}

// client is one closed-loop HTTP client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

// post submits d and returns the session ID. Requests carry only top,
// sources and until, so the server's defaults apply.
func (c *client) post(body []byte) (string, int, error) {
	resp, err := c.hc.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var rep server.SessionReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return "", resp.StatusCode, fmt.Errorf("submit reply: %w", err)
	}
	return rep.ID, resp.StatusCode, nil
}

func requestBody(d design) []byte {
	body, err := json.Marshal(server.SessionRequest{
		Top:     d.top,
		Sources: []server.SourceRequest{{Name: "design.vhd", Text: d.source}},
		Until:   d.until,
	})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return body
}

// stream reads a session's trace to the end; first is called at the first
// byte. It returns the SHA-256 of the bytes.
func (c *client) stream(id string, first func()) ([32]byte, error) {
	var sum [32]byte
	resp, err := c.hc.Get(c.base + "/v1/sessions/" + id + "/trace")
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("trace: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if _, err := br.Peek(1); err != nil {
		return sum, fmt.Errorf("trace: no first byte: %w", err)
	}
	first()
	h := sha256.New()
	if _, err := br.WriteTo(h); err != nil {
		return sum, fmt.Errorf("trace: %w", err)
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// session runs one submit-then-stream session and times it.
func (c *client) session(idx int, d design, hit bool, sp spanRef) sample {
	s := sample{idx: idx, key: d.key, hit: hit, traced: sp.t != nil}
	body := requestBody(d)
	sub := sp.child("server.submit")
	t0 := time.Now()
	id, code, err := c.post(body)
	sub.end()
	s.id = id
	if err != nil {
		s.err, s.rejected = err, code == http.StatusTooManyRequests
		return s
	}
	wait := sp.child("server.first_byte")
	var str spanRef
	s.hash, s.err = c.stream(id, func() {
		s.ttfb = time.Since(t0)
		wait.end()
		str = sp.child("server.stream")
	})
	s.ttlb = time.Since(t0)
	str.end()
	return s
}

// closedLoop serves submits first .. first+epochSessions-1 with one
// client: submit a design, stream its trace to the last byte, submit the
// next. It returns the loop's duration.
//
// One client, not one per vCPU: with two, the loop kept both vCPUs of a
// 2-vCPU host saturated and its throughput swung by a fifth from run to
// run with the host's memory contention. With one, the session's own
// server goroutines (engine worker, GVT controller, HTTP handlers) still
// run beside the client.
func (c *client) closedLoop(corp *corpus, first int, tr *tracer) (time.Duration, []sample) {
	designs := make([]design, epochSessions)
	hits := make([]bool, epochSessions)
	for k := range designs {
		designs[k], hits[k] = corp.submit(first + k)
	}
	samples := make([]sample, 0, epochSessions)
	t0 := time.Now()
	for k, d := range designs {
		i := first + k
		var str *tracer
		if (i/24)%2 == 0 {
			// Blocks of 24 submits hold the whole size mix; every other
			// block is traced and the rest give the tracing overhead.
			str = tr
		}
		sp := str.root(fmt.Sprintf("session%d", i), "session")
		samples = append(samples, c.session(i, d, hits[k], sp))
		sp.end()
	}
	return time.Since(t0), samples
}

// ref is the in-process sequential reference for one design.
type ref struct {
	hash           [32]byte
	lines          int
	events         uint64
	kb             float64       // source size
	wall           time.Duration // the sequential simulation alone
	mallocs, bytes uint64        // heap allocation during it (traced runs only)
}

// reference compiles d in process, lints it, simulates a fresh clone with
// the sequential kernel (Model.Simulate, which is pdes.RunSequential on the
// system Design.Build makes) and hashes the rendered trace exactly as
// govhdld streams it (one line per record, newline-terminated). The
// simulation is timed on its own, after a forced collection, as the
// engine workloads time theirs.
func reference(d design, sp spanRef, memstats bool) (ref, error) {
	p := sp.child("vhdl.parse")
	df, err := vhdl.Parse("design.vhd", d.source)
	p.end()
	if err != nil {
		return ref{}, err
	}
	l := sp.child("lint.analyze")
	diags := lint.Analyze(df)
	l.end()
	if len(diags) > 0 {
		return ref{}, fmt.Errorf("corpus design %s does not lint clean: %v", d.key, diags[0])
	}
	e := sp.child("vhdl.elab")
	lib := vhdl.NewLibrary()
	if err := lib.Add(df); err != nil {
		return ref{}, err
	}
	proto, err := lib.Elaborate(d.top)
	e.end()
	if err != nil {
		return ref{}, err
	}
	c := sp.child("kernel.clone")
	clone, err := proto.CloneFresh()
	c.end()
	if err != nil {
		return ref{}, err
	}
	until, err := runopts.ParseTime(d.until)
	if err != nil {
		return ref{}, err
	}
	b := sp.child("kernel.build")
	model := govhdl.FromDesign(clone)
	b.end()
	runtime.GC()
	var before, after runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&before)
	}
	sim := sp.child("pdes.run_seq")
	t0 := time.Now()
	res, err := model.Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: until})
	wall := time.Since(t0)
	sim.end()
	if memstats {
		runtime.ReadMemStats(&after)
	}
	if err != nil {
		return ref{}, err
	}
	tl := sp.child("trace.lines")
	lines := res.TraceLines()
	tl.end()
	h := sha256.New()
	for _, ln := range lines {
		io.WriteString(h, ln)
		io.WriteString(h, "\n")
	}
	var out ref
	copy(out.hash[:], h.Sum(nil))
	out.lines, out.events, out.kb = len(lines), res.Run.Metrics.Events, float64(len(d.source))/1024
	out.wall, out.mallocs, out.bytes = wall, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return out, nil
}

// serverMetrics reads govhdld's /metrics: the server's counters, and the
// engine figures of every finished session by session ID.
func serverMetrics(c *client) (map[string]float64, map[string]*sessionStats, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sessions := map[string]*sessionStats{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
			continue
		}
		// session <id> state=... gvt=<final GVT> wall=<duration> events=N ...
		if len(f) < 3 || f[0] != "session" {
			continue
		}
		var st *sessionStats
		for _, kv := range f[2:] {
			k, v, ok := strings.Cut(kv, "=")
			switch {
			case !ok:
			case k == "wall":
				if d, err := time.ParseDuration(v); err == nil {
					st = &sessionStats{wall: d, counts: map[string]float64{}}
				}
			case st != nil: // the engine's counters follow the wall time
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					st.counts[k] = x
				}
			}
		}
		if st != nil {
			sessions[f[1]] = st
		}
	}
	return out, sessions, sc.Err()
}

// runServe is the serve-vhdl workload: govhdld on loopback HTTP under a
// closed loop of one client that submits a design, streams its trace to
// the last byte, then submits the next.
func runServe(seed int64, budget time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	corp := newCorpus(seed)
	refs := map[string]ref{}
	var refOrder []string // every reference computed, in order
	addRef := func(d design, group string) error {
		sp := tr.root(group, "check")
		r, err := reference(d, sp, tr != nil)
		sp.end()
		if err != nil {
			return err
		}
		refs[d.key] = r
		refOrder = append(refOrder, d.key)
		return nil
	}
	for i, d := range corp.shared {
		if err := addRef(d, fmt.Sprintf("ref-shared%d", i)); err != nil {
			return nil, fmt.Errorf("shared design %d: %w", i, err)
		}
	}

	// The measured phase is a series of epochs, each on a fresh server:
	// set-up starts the server and makes the first, cache-filling submit of
	// every shared design; then the closed loop serves epochSessions
	// sessions. govhdld never prunes finished sessions, so a single long
	// loop would measure a heap, and a garbage collector, that grow with
	// the sessions already served.
	var (
		samples []sample
		setupS  []float64
		loop    time.Duration // measured time, all epochs
		heap    float64
		srv     = map[string]float64{}
	)
	for epoch := 0; epoch == 0 || loop < budget; epoch++ {
		runtime.GC() // the previous epoch's server is garbage now
		sp := tr.root(fmt.Sprintf("setup%d", epoch), "setup")
		t0 := time.Now()
		st := sp.child("server.start")
		ls, err := startServer()
		st.end()
		if err != nil {
			return nil, err
		}
		cl := newClient(ls.base)
		ids := make([]string, len(corp.shared))
		for i, d := range corp.shared {
			sub := sp.child("server.fill")
			ids[i], _, err = cl.post(requestBody(d))
			sub.end()
			if err != nil {
				ls.stop()
				return nil, fmt.Errorf("set-up submit: %w", err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sp.end()
		// Outside set-up: drain the warm-up sessions and check their traces.
		for i, id := range ids {
			rep.attempted++
			sum, err := cl.stream(id, func() {})
			if err == nil && sum != refs[corp.shared[i].key].hash {
				err = fmt.Errorf("streamed trace differs from the sequential reference")
			}
			if err != nil {
				rep.fail("set-up session %s (%s): %v", id, corp.shared[i].key, err)
			}
		}

		d, ss := cl.closedLoop(corp, epoch*epochSessions, tr)
		loop += d
		if epoch == 0 {
			heap = liveHeapMB()
		}
		m, stats, err := serverMetrics(cl)
		if err == nil {
			for k, v := range m {
				srv[k] += v
			}
			for k := range ss {
				ss[k].epoch, ss[k].eng = epoch, stats[ss[k].id]
			}
		}
		samples = append(samples, ss...)
		if serr := ls.stop(); err == nil {
			err = serr
		}
		cl.hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}

	// Check every session against its reference, outside every timed
	// interval and outside set-up. The references for the misses are
	// computed one at a time, so their sequential simulations are timed
	// as the engine workloads time theirs.
	refErr := map[string]error{}
	for _, s := range samples {
		if _, ok := refs[s.key]; ok || s.err != nil || s.hit {
			continue
		}
		d, _ := corp.submit(s.idx)
		if err := addRef(d, "ref-"+s.key); err != nil {
			refErr[s.key] = err
		}
	}

	good, rejected, entries := 0, 0, 0
	var (
		ttfb, ttlb, tracedLB, plainLB []float64
		parRate, speedup              []float64
		firstEpoch                    []sample // the good sessions of epoch 0, for exact and per-epoch counts
	)
	for _, s := range samples {
		rep.attempted++
		r := refs[s.key]
		if s.err == nil {
			if err := refErr[s.key]; err != nil {
				s.err = err
			} else if s.hash != r.hash {
				s.err = fmt.Errorf("streamed trace differs from the sequential reference")
			} else if s.eng == nil || s.eng.wall <= 0 {
				s.err = fmt.Errorf("/metrics has no engine figures for session %s", s.id)
			}
		}
		if s.rejected {
			rejected++
		}
		if s.err != nil {
			rep.fail("session %d (%s): %v", s.idx, s.key, s.err)
			s.ttfb, s.ttlb = loop, loop // a failed session misses every latency limit
		} else {
			good++
			parRate = append(parRate, float64(r.events)/s.eng.wall.Seconds())
			speedup = append(speedup, r.wall.Seconds()/s.eng.wall.Seconds())
			if s.epoch == 0 {
				entries += r.lines
				firstEpoch = append(firstEpoch, s)
			}
		}
		ttfb = append(ttfb, ms(s.ttfb))
		ttlb = append(ttlb, ms(s.ttlb))
		if s.traced {
			tracedLB = append(tracedLB, ms(s.ttlb))
		} else {
			plainLB = append(plainLB, ms(s.ttlb))
		}
	}
	if len(samples) < minSessions {
		rep.fail("only %d sessions in the measured loop; p90 needs at least %d", len(samples), minSessions)
	}
	var seqRate []float64
	for _, k := range refOrder {
		seqRate = append(seqRate, float64(refs[k].events)/refs[k].wall.Seconds())
	}
	rep.endToEnd("setup_s", median(setupS))
	rep.endToEnd("seq_events_per_s", median(seqRate))
	rep.endToEnd("par_events_per_s", median(parRate))
	rep.endToEnd("live_heap_mb", heap)
	rep.endToEnd("sessions_per_s", float64(good)/loop.Seconds())
	rep.endToEnd("ttfb_p50_ms", quantile(ttfb, 0.5))
	rep.endToEnd("ttfb_p90_ms", quantile(ttfb, 0.9))
	rep.endToEnd("ttlb_p50_ms", quantile(ttlb, 0.5))
	rep.endToEnd("ttlb_p90_ms", quantile(ttlb, 0.9))
	if tr == nil {
		return rep, nil
	}

	stats, _ := tr.summarize()
	sumNs := func(name string) float64 {
		if st := stats[name]; st != nil {
			var t time.Duration
			for _, d := range st.Durs {
				t += d
			}
			return float64(t)
		}
		return 0
	}
	var kb float64
	var events, lines, mallocs, bytes uint64
	for _, r := range refs {
		lines += uint64(r.lines)
		events += r.events
		mallocs += r.mallocs
		bytes += r.bytes
		kb += r.kb
	}
	rep.layer("vhdl.parse_us_per_kb", sumNs("vhdl.parse")/1e3/kb)
	rep.layer("vhdl.elab_ms", medianMS(stats, "vhdl.elab"))
	rep.layer("lint.analyze_ms", medianMS(stats, "lint.analyze"))
	rep.layer("kernel.clone_ms", medianMS(stats, "kernel.clone"))
	rep.layer("kernel.build_ms", medianMS(stats, "kernel.build"))
	rep.layer("seq.ns_per_event", 1e9/median(seqRate))
	rep.layer("seq.allocs_per_event", float64(mallocs)/float64(events))
	rep.layer("seq.bytes_per_event", float64(bytes)/float64(events))

	// The server's sessions run pdes.Run with its defaults (dynamic
	// protocol, one worker); their counters are summed over the first
	// epoch's sessions, a fixed amount of work.
	var committed, wall float64
	counts := map[string]float64{}
	for _, s := range firstEpoch {
		committed += float64(refs[s.key].events)
		wall += ms(s.eng.wall)
		for k, v := range s.eng.counts {
			counts[k] += v
		}
	}
	rep.exactCount("seq.events", []float64{committed})
	rep.layer("par.ns_per_event", 1e9/median(parRate))
	rep.layer("par.events_executed", counts["events"])
	rep.layer("par.efficiency", committed/counts["events"])
	rep.layer("par.gvt_rounds", counts["gvt"])
	rep.layer("par.ms_per_gvt_round", wall/counts["gvt"])
	rep.layer("par.null_msgs", counts["nulls"])
	rep.layer("par.remote_msgs", counts["remote"])
	rep.layer("par.rollbacks", counts["rollbacks"])
	rep.layer("par.rolled_back", counts["rolledback"])
	rep.layer("par.antis", counts["antis"])
	rep.layer("par.speedup", median(speedup))
	rep.layer("trace.lines_ns_per_line", sumNs("trace.lines")/float64(lines))
	rep.exactCount("trace.entries", []float64{float64(entries)})
	rep.layer("server.submit_ms", medianMS(stats, "server.submit"))
	rep.layer("server.first_byte_ms", medianMS(stats, "server.first_byte"))
	rep.layer("server.stream_ms", medianMS(stats, "server.stream"))
	if h, miss := srv["cache_hits"], srv["cache_misses"]; h+miss > 0 {
		rep.layer("server.cache_hit_ratio", h/(h+miss))
	}
	rep.layer("server.rejected", float64(rejected))
	rep.layer("server.failed", srv["sessions_failed"])
	rep.layer("span.overhead_pct", 100*(median(tracedLB)/median(plainLB)-1))
	return rep, nil
}
