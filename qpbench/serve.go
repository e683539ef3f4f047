package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/layout"
)

// serveRate is the offered load of the serve workload in requests per
// second: under half of the mix's closed-loop capacity over one connection
// against a two-worker server (about 105 requests/s on the two-CPU box the
// benchmark was calibrated on, measured with -capacity), so that a host
// twice as busy still keeps up with the schedule.
const serveRate = 50.0

// Validity bounds of the load generator itself: a run whose generator
// dispatched requests later than this at the 90th percentile, or that
// opened more connections, measured the generator and is not scored. One
// connection means the server handles one request at a time, so the
// server CPU time across a request is that request's own.
const (
	lateBound = 10 * time.Millisecond
	maxConns  = 1
)

// Wire forms of the qpld serve JSON API (docs/API.md), reduced to the
// fields the benchmark sends and checks.
type (
	rectJSON    [4]int
	processJSON struct {
		MinWidth  int `json:"min_width"`
		MinSpace  int `json:"min_space"`
		HalfPitch int `json:"half_pitch"`
	}
	layoutJSON struct {
		Process  *processJSON `json:"process,omitempty"`
		Features [][]rectJSON `json:"features"`
	}
	decomposeRequest struct {
		K            int        `json:"k"`
		Workers      int        `json:"workers"`
		BuildWorkers int        `json:"build_workers"`
		Memoize      bool       `json:"memoize"`
		Layout       layoutJSON `json:"layout"`
	}
	editJSON struct {
		Op      string     `json:"op"`
		Feature int        `json:"feature,omitempty"`
		Rects   []rectJSON `json:"rects,omitempty"`
		DX      int        `json:"dx,omitempty"`
		DY      int        `json:"dy,omitempty"`
	}
	incrementalRequest struct {
		Base         string     `json:"base"`
		Edits        []editJSON `json:"edits"`
		K            int        `json:"k"`
		Workers      int        `json:"workers"`
		BuildWorkers int        `json:"build_workers"`
		Memoize      bool       `json:"memoize"`
	}
	decomposeResponse struct {
		Fragments  int    `json:"fragments"`
		Conflicts  int    `json:"conflicts"`
		Stitches   int    `json:"stitches"`
		Proven     bool   `json:"proven"`
		Degraded   int    `json:"degraded"`
		Cached     bool   `json:"cached"`
		LayoutHash string `json:"layout_hash"`
		Shapes     *struct {
			Hits   int `json:"hits"`
			Misses int `json:"misses"`
		} `json:"shapes"`
		Incremental *struct {
			RebuiltFragments   int `json:"rebuilt_fragments"`
			Components         int `json:"components"`
			ResolvedComponents int `json:"resolved_components"`
		} `json:"incremental"`
		Error string `json:"error"`
	}
)

// serveOptions are the options every serve request resolves to on the
// server (its default engine, SDP+Backtrack, with memoization on); the
// in-process checks and replays use the same.
func serveOptions() core.Options {
	return core.Options{
		K:         4,
		Algorithm: core.AlgSDPBacktrack,
		Memoize:   true,
		Build:     core.BuildOptions{Workers: buildWorkers},
		Division:  division.Options{Workers: divisionWorkers},
	}
}

func layoutBody(l *layout.Layout) []byte {
	lj := layoutJSON{
		Process:  &processJSON{MinWidth: l.Process.MinWidth, MinSpace: l.Process.MinSpace, HalfPitch: l.Process.HalfPitch},
		Features: make([][]rectJSON, len(l.Features)),
	}
	for i, f := range l.Features {
		rs := make([]rectJSON, len(f.Rects))
		for j, r := range f.Rects {
			rs[j] = rectJSON{r.X0, r.Y0, r.X1, r.Y1}
		}
		lj.Features[i] = rs
	}
	b, err := json.Marshal(decomposeRequest{K: 4, Workers: divisionWorkers, BuildWorkers: buildWorkers, Memoize: true, Layout: lj})
	if err != nil {
		panic(err) // plain structs of ints always marshal
	}
	return b
}

func editsBody(base string, edits []core.Edit) []byte {
	ej := make([]editJSON, len(edits))
	for i, e := range edits {
		switch e.Op {
		case core.EditAdd:
			ej[i].Op = "add"
			for _, r := range e.Shape.Rects {
				ej[i].Rects = append(ej[i].Rects, rectJSON{r.X0, r.Y0, r.X1, r.Y1})
			}
		case core.EditRemove:
			ej[i] = editJSON{Op: "remove", Feature: e.Feature}
		default:
			ej[i] = editJSON{Op: "move", Feature: e.Feature, DX: e.DX, DY: e.DY}
		}
	}
	b, err := json.Marshal(incrementalRequest{Base: base, Edits: ej, K: 4, Workers: divisionWorkers, BuildWorkers: buildWorkers, Memoize: true})
	if err != nil {
		panic(err)
	}
	return b
}

// server is one running `qpld serve` process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string
	client  *http.Client
	dials   atomic.Int64
	logTail *tailBuffer
	exited  chan struct{}
}

var servingRe = regexp.MustCompile(`serving on (\S+) `)

// startServer execs qpld serve on a loopback port with a fresh data
// directory and waits for its first healthy /healthz answer.
func startServer(ctx context.Context, qpld, dataDir string) (*server, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	s := &server{dataDir: dataDir, logTail: &tailBuffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(qpld, "serve", "-addr", "127.0.0.1:0",
		"-workers", fmt.Sprint(serverWorkers), "-build-workers", fmt.Sprint(buildWorkers),
		"-data-dir", dataDir)
	addrc := make(chan string, 1)
	s.cmd.Stderr = &lineWriter{fn: func(line string) {
		s.logTail.add(line)
		if m := servingRe.FindStringSubmatch(line); m != nil {
			select {
			case addrc <- m[1]:
			default:
			}
		}
	}}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qpld serve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrc:
	case <-s.exited:
		return nil, fmt.Errorf("qpld serve exited during start-up: %s", s.logTail.String())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				s.dials.Add(1)
				return (&net.Dialer{}).DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
	for {
		resp, err := s.client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("qpld serve exited before it was healthy: %s", s.logTail.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB is the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after a
// grace period) and waits for it to exit, then removes its data directory.
func (s *server) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.dataDir)
}

// post sends one JSON request and decodes the answer. The latency the
// caller records ends when the body has been read, before decoding.
func (s *server) post(path string, body []byte) (resp decomposeResponse, done time.Time, err error) {
	r, err := s.client.Post("http://"+s.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, time.Now(), err
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	done = time.Now()
	if err != nil {
		return resp, done, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, done, fmt.Errorf("decode response: %w", err)
	}
	if r.StatusCode != http.StatusOK {
		return resp, done, fmt.Errorf("HTTP %d: %s", r.StatusCode, resp.Error)
	}
	return resp, done, nil
}

func (s *server) stats() (map[string]any, error) {
	r, err := s.client.Get("http://" + s.addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// lineWriter hands each complete line written to it to fn.
type lineWriter struct {
	fn  func(string)
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.fn(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}

// tailBuffer keeps the last lines a child process logged, for error
// messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(l string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, l)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprint(t.lines)
}

// served is one layout the server has decomposed from scratch, with the
// answer it gave.
type served struct {
	layout *layout.Layout
	body   []byte
	hash   string
	cn, st int
	ok     bool // the answer arrived and passed its checks
}

// chain is one client-side ECO session: a layout and the hash of the
// server session that holds it. An edit batch is sent only on an idle
// chain, because the next base hash comes from the previous answer.
type chain struct {
	layout *layout.Layout
	hash   string
	cn, st int
	edits  int
	busy   bool
}

// serveState is what the serve workload knows about the server's sessions.
type serveState struct {
	mu     sync.Mutex
	warm   []*served // negative refs
	fresh  []*served
	chains []*chain
	pick   int
	// warmOps are the set-up's operations, for the in-process replay.
	warmOps []*outcome
}

func (st *serveState) servedRef(ref int) *served {
	if ref < 0 {
		return st.warm[len(st.warm)+ref]
	}
	return st.fresh[ref]
}

// idleChain picks an idle chain among the eight most recently opened
// (older ones only if all of those are busy) and marks it busy.
func (st *serveState) idleChain() *chain {
	st.mu.Lock()
	defer st.mu.Unlock()
	var idle []*chain
	for i := len(st.chains) - 1; i >= 0 && (len(idle) == 0 || i >= len(st.chains)-8); i-- {
		if !st.chains[i].busy {
			idle = append(idle, st.chains[i])
		}
	}
	if len(idle) == 0 {
		return nil
	}
	c := idle[st.pick%len(idle)]
	st.pick++
	c.busy = true
	return c
}

// warmUp decomposes the warm-up layouts, repeats two, and sends one edit
// batch per warm-up session: the untimed operations that fill the server's
// pools and caches before the window opens. Each is kept in st.warmOps so
// the in-process replay can rebuild the same sessions.
func warmUp(s *server, st *serveState, seed int64, warm []*layout.Layout) error {
	for i, l := range warm {
		sv := &served{layout: l, body: layoutBody(l)}
		resp, _, err := s.post("/v1/decompose", sv.body)
		if err != nil {
			return fmt.Errorf("warm-up decompose: %w", err)
		}
		sv.hash, sv.cn, sv.st, sv.ok = resp.LayoutHash, resp.Conflicts, resp.Stitches, true
		st.warm = append(st.warm, sv)
		st.chains = append(st.chains, &chain{layout: l, hash: resp.LayoutHash, cn: resp.Conflicts, st: resp.Stitches})
		st.warmOps = append(st.warmOps, &outcome{slot: slot{Kind: kindHit, Ref: i - len(warm)}})
	}
	for _, sv := range st.warm[:2] {
		if _, _, err := s.post("/v1/decompose", sv.body); err != nil {
			return fmt.Errorf("warm-up repeat: %w", err)
		}
	}
	for i, c := range st.chains {
		rng := rand.New(rand.NewSource(mixSeed(seed, -10-i)))
		edits := editBatch(rng, c.layout)
		resp, _, err := s.post("/v1/decompose/incremental", editsBody(c.hash, edits))
		if err != nil {
			return fmt.Errorf("warm-up edit: %w", err)
		}
		nl, err := core.EditLayout(c.layout, edits)
		if err != nil {
			return err
		}
		st.warmOps = append(st.warmOps, &outcome{slot: slot{Kind: kindEdit}, base: c.hash, edits: edits, after: nl})
		c.layout, c.hash, c.cn, c.st, c.edits = nl, resp.LayoutHash, resp.Conflicts, resp.Stitches, c.edits+1
	}
	return nil
}

// outcome is one request of the window.
type outcome struct {
	slot
	late    time.Duration // generator dispatch delay past the due time
	latency time.Duration // due time to answer read
	cpu     time.Duration // server CPU time from send to answer read
	resp    decomposeResponse
	err     error
	bytes   int
	// edits only
	chainRef *chain
	base     string
	edits    []core.Edit
	before   *layout.Layout
	after    *layout.Layout
}

// window is the open-loop measurement window.
type window struct {
	outs        []*outcome
	start, end  time.Time
	cpu         time.Duration // server CPU time over the whole window
	cpuErr      error
	inflightMax int64
	dials       int64
}

// runWindow sends the schedule open loop: a dispatcher hands each request
// to the connection senders at its due time, whatever is still in flight,
// and every latency is measured from the due time. Each sender also reads
// the server's CPU clock around its request. With closed set, the
// dispatcher instead waits for an idle connection before each request
// (the closed-loop capacity probe).
func runWindow(s *server, st *serveState, seed int64, slots []slot, closed bool) *window {
	w := &window{outs: make([]*outcome, len(slots))}
	idle := make(chan struct{}, maxConns)
	for i := 0; i < maxConns; i++ {
		idle <- struct{}{}
	}
	jobs := make(chan *outcome, len(slots)) // sized to the number of sends: the dispatcher never blocks
	var inflight atomic.Int64
	var maxInflight atomic.Int64
	dials0 := s.dials.Load()
	var wg sync.WaitGroup
	var cpuMu sync.Mutex
	serverCPU := func() time.Duration {
		d, err := processCPU(s.cmd.Process.Pid)
		if err != nil {
			cpuMu.Lock()
			w.cpuErr = err
			cpuMu.Unlock()
		}
		return d
	}
	cpu0 := serverCPU()
	w.start = time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range jobs {
				n := inflight.Add(1)
				for {
					m := maxInflight.Load()
					if n <= m || maxInflight.CompareAndSwap(m, n) {
						break
					}
				}
				var body []byte
				path := "/v1/decompose"
				switch o.Kind {
				case kindFresh:
					body = st.fresh[o.Ref].body
				case kindHit:
					body = st.servedRef(o.Ref).body
				case kindEdit:
					path = "/v1/decompose/incremental"
					body = editsBody(o.base, o.edits)
				}
				o.bytes = len(body)
				c0 := serverCPU()
				resp, done, err := s.post(path, body)
				o.cpu = serverCPU() - c0
				inflight.Add(-1)
				o.resp, o.err = resp, err
				o.latency = done.Sub(w.start.Add(o.Due))
				settle(st, o)
				if closed {
					idle <- struct{}{}
				}
			}
		}()
	}
	for i, sl := range slots {
		if closed {
			<-idle
		}
		due := w.start.Add(sl.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &outcome{slot: sl, late: time.Since(due)}
		if sl.Kind == kindEdit {
			c := st.idleChain()
			if c == nil {
				o.err = fmt.Errorf("no idle session to edit")
				w.outs[i] = o
				if closed {
					idle <- struct{}{}
				}
				continue
			}
			rng := rand.New(rand.NewSource(mixSeed(seed, 2_000_000+sl.Idx)))
			o.before = c.layout
			o.base = c.hash
			o.edits = editBatch(rng, c.layout)
			o.chainRef = c
		}
		w.outs[i] = o
		jobs <- o
	}
	close(jobs)
	wg.Wait()
	w.end = time.Now()
	w.cpu = serverCPU() - cpu0
	w.inflightMax = maxInflight.Load()
	w.dials = s.dials.Load() - dials0
	return w
}

// settle applies an answer to the client-side session state: a fresh
// decompose opens a chain, an edit advances (and frees) its chain.
func settle(st *serveState, o *outcome) {
	switch o.Kind {
	case kindFresh:
		sv := st.fresh[o.Ref]
		if o.err == nil {
			st.mu.Lock()
			sv.hash, sv.cn, sv.st, sv.ok = o.resp.LayoutHash, o.resp.Conflicts, o.resp.Stitches, true
			st.chains = append(st.chains, &chain{layout: sv.layout, hash: o.resp.LayoutHash, cn: o.resp.Conflicts, st: o.resp.Stitches})
			st.mu.Unlock()
		}
	case kindEdit:
		c := o.chainRef
		var nl *layout.Layout
		if o.err == nil {
			nl, o.err = core.EditLayout(o.before, o.edits)
		}
		st.mu.Lock()
		if o.err == nil {
			o.after = nl
			c.layout, c.hash, c.cn, c.st = nl, o.resp.LayoutHash, o.resp.Conflicts, o.resp.Stitches
			c.edits++
		}
		c.busy = false
		st.mu.Unlock()
	}
}
