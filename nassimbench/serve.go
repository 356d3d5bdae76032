package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nassim"
	"nassim/internal/serve"
)

// The serve workloads drive the real `nassim serve` in its own process
// with a closed loop of nproc keep-alive connections, because `nassim
// client` and controllers block on their reply. The generator pre-encodes
// request bodies and reuses one read buffer per connection so it costs
// the shared cores as little as possible.

// serveStarts is how many fresh daemons each run starts; each is followed
// by a restart over the mirror it wrote. Set-up, cold and restart figures
// are medians over these.
const serveStarts = 5

// hotBodies are serve_hot's five keys at the daemon's default scale (0.1):
// each vendor alone and all four together. Their responses range from
// tens of kilobytes to megabytes.
func hotBodies() [][]byte {
	var out [][]byte
	for _, v := range nassim.Vendors() {
		out = append(out, mustJSON(serve.Request{Vendors: []string{v}}))
	}
	return append(out, mustJSON(serve.Request{Vendors: nassim.Vendors()}))
}

// missRequest is serve_miss's request shape: all four vendors at scale
// 0.05 with validation and live test; the seed picks the live instances.
func missRequest(seed uint64) serve.Request {
	return serve.Request{Vendors: nassim.Vendors(), Scale: 0.05, Validate: true, LiveTest: true, Seed: seed}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always encode
	}
	return b
}

// httpRequest pre-encodes a complete HTTP/1.1 POST.
func httpRequest(path string, body []byte) []byte {
	return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: nassimd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body)
}

// daemon is one `nassim serve` process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	stdout   sync.WaitGroup
	spawned  time.Time
	stopOnce sync.Once
}

// startDaemon spawns `nassim serve` over a disk mirror and waits until
// /healthz answers.
func startDaemon(bin, mirror string) (*daemon, error) {
	d := &daemon{}
	d.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-cache-dir", mirror)
	d.cmd.SysProcAttr = dieWithParent()
	d.cmd.Stderr = os.Stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("serve: start daemon: %w", err)
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("serve: daemon exited before serving: %w", err)
	}
	const marker = "on http://"
	i := strings.Index(line, marker)
	if i < 0 {
		d.kill()
		return nil, fmt.Errorf("serve: unexpected daemon banner %q", line)
	}
	d.addr = strings.Fields(line[i+len(marker):])[0]
	// Keep draining stdout so the daemon never blocks on a full pipe.
	d.stdout.Add(1)
	go func() {
		defer d.stdout.Done()
		io.Copy(io.Discard, br)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get("http://" + d.addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("serve: daemon at %s never became healthy", d.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	var err error
	d.stopOnce.Do(func() {
		if e := d.cmd.Process.Signal(syscall.SIGTERM); e != nil {
			err = e
		}
		done := make(chan error, 1)
		go func() { d.stdout.Wait(); done <- d.cmd.Wait() }()
		select {
		case e := <-done:
			if err == nil && e != nil {
				err = fmt.Errorf("serve: daemon exit: %w", e)
			}
		case <-time.After(60 * time.Second):
			d.cmd.Process.Kill()
			<-done
			err = fmt.Errorf("serve: daemon did not drain within 60s")
		}
	})
	return err
}

func (d *daemon) kill() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Kill()
		d.stdout.Wait()
		d.cmd.Wait()
	})
}

// get fetches a daemon endpoint.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// promSnapshot scrapes /metrics into series -> value.
func (d *daemon) promSnapshot() (map[string]float64, error) {
	data, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(data), nil
}

// parseProm parses Prometheus text exposition: "name{labels} value".
func parseProm(data []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// gcCPUFraction reads the daemon's GC CPU fraction from /debug/vars.
func (d *daemon) gcCPUFraction() (float64, error) {
	data, err := d.get("/debug/vars")
	if err != nil {
		return 0, err
	}
	var vars struct {
		Memstats struct {
			GCCPUFraction float64 `json:"GCCPUFraction"`
		} `json:"memstats"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		return 0, fmt.Errorf("serve: /debug/vars: %w", err)
	}
	return vars.Memstats.GCCPUFraction, nil
}

// conn is one keep-alive client connection with a reused read buffer.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// do sends a pre-encoded request and reads the whole response. The body
// is valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// stream sends a pre-encoded ?stream=1 request and reads its SSE events,
// returning the status, the result document and the time from the
// queued event to the started event.
func (c *conn) stream(req []byte) (int, []byte, time.Duration, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, 0, nil
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	var event string
	var queued, started time.Time
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return resp.StatusCode, nil, 0, fmt.Errorf("serve: stream ended without a result: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			switch event {
			case "queued":
				queued = time.Now()
			case "started":
				started = time.Now()
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == "result":
			io.Copy(io.Discard, r)
			var wait time.Duration
			if !queued.IsZero() && !started.IsZero() {
				wait = started.Sub(queued)
			}
			return resp.StatusCode, line[len("data: "):], wait, nil
		case bytes.HasPrefix(line, []byte("data: ")) && event == "error":
			return resp.StatusCode, nil, 0, fmt.Errorf("serve: job failed: %s", line)
		}
	}
}

func (c *conn) close() { c.c.Close() }

// vendorsBlock returns the top-level "vendors" value of an indented
// response document: everything after its key. The response's field
// order is fixed (schema, key, request, vendors), and the request echo's
// own "vendors" key sits one level deeper, so the two never collide.
func vendorsBlock(doc []byte) ([]byte, bool) {
	key := []byte("\n  \"vendors\": ")
	i := bytes.Index(doc, key)
	if i < 0 {
		return nil, false
	}
	return doc[i+len(key):], true
}

// checkHot is serve_hot's per-response check.
func checkHot(status int, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("response of %d bytes differs from the %d-byte set-up response", len(body), len(want))
	}
	return nil
}

// checkMiss is serve_miss's per-response check: the vendors block must
// equal the set-up response's, which does not depend on the live seed.
func checkMiss(status int, body, wantVendors []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	got, ok := vendorsBlock(body)
	if !ok {
		return fmt.Errorf("response has no top-level vendors block")
	}
	if !bytes.Equal(got, wantVendors) {
		return fmt.Errorf("vendors block differs from the set-up response's")
	}
	return nil
}

// checkMissSetup requires the set-up response to show every live instance
// verified and every configuration line matched.
func checkMissSetup(body []byte) error {
	var doc struct {
		Vendors []struct {
			Vendor             string `json:"vendor"`
			ConfigFiles        int    `json:"config_files"`
			ConfigLinesMatched int    `json:"config_lines_matched"`
			ConfigLinesTotal   int    `json:"config_lines_total"`
			LiveTested         int    `json:"live_tested"`
			LiveVerified       int    `json:"live_verified"`
		} `json:"vendors"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("set-up response: %w", err)
	}
	if len(doc.Vendors) != len(nassim.Vendors()) {
		return fmt.Errorf("set-up response has %d vendors", len(doc.Vendors))
	}
	for _, v := range doc.Vendors {
		if v.LiveTested == 0 || v.LiveVerified != v.LiveTested {
			return fmt.Errorf("%s: %d of %d live instances verified", v.Vendor, v.LiveVerified, v.LiveTested)
		}
		if v.ConfigLinesMatched != v.ConfigLinesTotal {
			return fmt.Errorf("%s: %d of %d config lines matched", v.Vendor, v.ConfigLinesMatched, v.ConfigLinesTotal)
		}
	}
	return nil
}

// warmup sends the set-up requests once each on one connection and
// returns the responses.
func warmup(d *daemon, reqs [][]byte) ([][]byte, error) {
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var out [][]byte
	for _, r := range reqs {
		status, body, err := c.do(r)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("serve: set-up request: status %d: %s", status, body)
		}
		out = append(out, append([]byte(nil), body...))
	}
	return out, nil
}

// loadStats is one measured phase's outcome.
type loadStats struct {
	lat       []float64 // seconds
	ends      []time.Time
	from, to  time.Time
	windows   []stealWindow // filled in by the caller from the steal log
	wall      time.Duration
	bytes     int64
	attempted int
	failed    int
	failures  []string
	queueWait []float64 // seconds, streamed requests only
	spans     []span
}

// closedLoop runs nconn connections, each sending its next request only
// after the previous reply. next returns the request and the check for
// connection ci's i-th request, or ok=false to stop.
func closedLoop(addr string, nconn int, stream, traced bool,
	next func(ci, i int) (req []byte, check func(int, []byte) error, ok bool)) (*loadStats, error) {
	conns := make([]*conn, nconn)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			for _, c := range conns[:i] {
				c.close()
			}
			return nil, err
		}
		conns[i] = c
	}
	parts := make([]loadStats, nconn)
	errs := make([]error, nconn)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			p, c := &parts[ci], conns[ci]
			for i := 0; ; i++ {
				req, check, ok := next(ci, i)
				if !ok {
					return
				}
				t0 := time.Now()
				var status int
				var body []byte
				var qw time.Duration
				var err error
				if stream {
					status, body, qw, err = c.stream(req)
				} else {
					status, body, err = c.do(req)
				}
				t1 := time.Now()
				p.attempted++
				if err != nil {
					errs[ci] = err
					return
				}
				p.lat = append(p.lat, t1.Sub(t0).Seconds())
				p.ends = append(p.ends, t1)
				p.bytes += int64(len(body))
				if stream {
					p.queueWait = append(p.queueWait, qw.Seconds())
				}
				if traced {
					p.spans = append(p.spans, span{Name: "request", Group: fmt.Sprintf("conn%d/%d", ci, i), Start: t0, End: t1})
				}
				if err := check(status, body); err != nil {
					p.failed++
					if len(p.failures) < 5 {
						p.failures = append(p.failures, err.Error())
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	end := time.Now()
	st := &loadStats{wall: end.Sub(start), from: start, to: end}
	for i, c := range conns {
		c.close()
		if errs[i] != nil {
			return nil, fmt.Errorf("serve: connection %d: %w", i, errs[i])
		}
		st.add(&parts[i])
	}
	return st, nil
}

// add pools another phase's requests into st; walls add up, so pooled
// throughput is requests over total measured time.
func (st *loadStats) add(p *loadStats) {
	st.lat = append(st.lat, p.lat...)
	st.ends = append(st.ends, p.ends...)
	st.windows = append(st.windows, p.windows...)
	st.wall += p.wall
	st.bytes += p.bytes
	st.attempted += p.attempted
	st.failed += p.failed
	st.failures = append(st.failures, p.failures...)
	st.queueWait = append(st.queueWait, p.queueWait...)
	st.spans = append(st.spans, p.spans...)
}

// phaseCounters are daemon and generator readings taken around a phase.
type phaseCounters struct {
	prom               map[string]float64
	daemonCPU, selfCPU time.Duration
}

func readPhase(d *daemon) (phaseCounters, error) {
	var pc phaseCounters
	var err error
	if pc.prom, err = d.promSnapshot(); err != nil {
		return pc, err
	}
	if pc.daemonCPU, err = procCPU(d.pid()); err != nil {
		return pc, err
	}
	pc.selfCPU = selfCPU()
	return pc, nil
}

// serveLoad is one serve workload's traffic.
type serveLoad struct {
	o         *options
	miss      bool
	setupReqs [][]byte // sent once by every daemon before it is measured
	want      [][]byte // the first daemon's set-up responses
	missReqs  int      // serve_miss: requests per daemon
}

// phase sends daemon k's share of the measured traffic.
func (l *serveLoad) phase(d *daemon, k int, traced bool) (*loadStats, error) {
	nconn := runtime.NumCPU()
	if !l.miss {
		rngs := make([]*rand.Rand, nconn)
		for i := range rngs {
			rngs[i] = rand.New(rand.NewPCG(l.o.seed, uint64(k*nconn+i)))
		}
		deadline := time.Now().Add(time.Duration(l.o.seconds) * time.Second / serveStarts)
		return closedLoop(d.addr, nconn, false, traced, func(ci, i int) ([]byte, func(int, []byte) error, bool) {
			if time.Now().After(deadline) {
				return nil, nil, false
			}
			j := rngs[ci].IntN(len(l.setupReqs))
			return l.setupReqs[j], func(status int, body []byte) error { return checkHot(status, body, l.want[j]) }, true
		})
	}
	wantVendors, ok := vendorsBlock(l.want[0])
	if !ok {
		return nil, fmt.Errorf("serve: set-up response has no vendors block")
	}
	path := "/v1/assimilate"
	check := func(status int, body []byte) error { return checkMiss(status, body, wantVendors) }
	if traced {
		// Streamed requests report their queue wait; the result arrives
		// compacted onto one SSE line.
		path += "?stream=1"
		compact, err := compactVendors(l.want[0])
		if err != nil {
			return nil, err
		}
		check = func(status int, body []byte) error {
			got, err := compactVendors(body)
			if err != nil {
				return err
			}
			if status != http.StatusOK || !bytes.Equal(got, compact) {
				return fmt.Errorf("streamed vendors block differs from the set-up response's")
			}
			return nil
		}
	}
	reqs := make([][]byte, l.missReqs)
	for i := range reqs {
		// Every request carries a fresh live-test seed and so misses the
		// byte cache; seed 0 was the set-up request's.
		reqs[i] = httpRequest(path, mustJSON(missRequest(l.o.seed<<20|uint64(k*l.missReqs+i+1))))
	}
	var taken atomic.Int64
	return closedLoop(d.addr, nconn, traced, traced, func(ci, i int) ([]byte, func(int, []byte) error, bool) {
		j := int(taken.Add(1)) - 1
		if j >= len(reqs) {
			return nil, nil, false
		}
		return reqs[j], check, true
	})
}

// runServe runs serve_hot (miss=false) or serve_miss (miss=true). Each of
// serveStarts fresh daemons starts over an empty mirror, takes the set-up
// requests, serves its share of the measured traffic, and stops; a
// restarted daemon then takes the set-up requests again over the mirror
// the fresh one wrote. With tracing, the last daemon's share is traced.
func runServe(o *options, miss bool) (*result, error) {
	sp, err := startSpinner(o.self)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	l := &serveLoad{o: o, miss: miss}
	if miss {
		// A fixed request count, not a duration: the daemon keeps every
		// response, so its peak RSS depends on how many it served. At least
		// 240 in all, so that ten lie beyond the p90 of the quieter half.
		l.missReqs = max(240, 12*o.seconds) / serveStarts
		l.setupReqs = [][]byte{httpRequest("/v1/assimilate", mustJSON(missRequest(0)))}
	} else {
		for _, b := range hotBodies() {
			l.setupReqs = append(l.setupReqs, httpRequest("/v1/assimilate", b))
		}
	}
	res := newResult()
	checkSetup := func(got [][]byte, what string) {
		res.attempted += len(got)
		if l.want == nil {
			l.want = got
			if miss {
				if err := checkMissSetup(got[0]); err != nil {
					res.fail(err.Error())
				}
			}
			return
		}
		for i := range got {
			if !bytes.Equal(got[i], l.want[i]) {
				res.fail(fmt.Sprintf("%s daemon's set-up response %d differs from the first daemon's", what, i))
			}
		}
	}
	var setups, colds, restarts, rss []float64
	pooled := &loadStats{}
	var traced *loadStats
	var tracedBefore, tracedAfter phaseCounters
	for k := 0; k < serveStarts; k++ {
		mirror, err := os.MkdirTemp(o.work, "mirror-")
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(o.nassim, mirror)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		got, err := warmup(d, l.setupReqs)
		if err != nil {
			d.kill()
			return nil, err
		}
		now := time.Now()
		colds = append(colds, now.Sub(t).Seconds())
		setups = append(setups, now.Sub(d.spawned).Seconds())
		checkSetup(got, "fresh")

		isTraced := o.trace && k == serveStarts-1
		before, err := readPhase(d)
		if err != nil {
			d.kill()
			return nil, err
		}
		ls, err := l.phase(d, k, isTraced)
		if err != nil {
			d.kill()
			return nil, err
		}
		after, err := readPhase(d)
		if err != nil {
			d.kill()
			return nil, err
		}
		peak, err := peakRSSMB(d.pid())
		if err != nil {
			d.kill()
			return nil, err
		}
		ls.windows = o.steal.between(ls.from, ls.to)
		if isTraced {
			traced, tracedBefore, tracedAfter = ls, before, after
			if frac, err := d.gcCPUFraction(); err == nil {
				res.metrics.set("daemon.gc_cpu_fraction", frac, "ratio")
			}
		} else {
			pooled.add(ls)
		}
		res.absorb(ls.attempted, ls.failed, ls.failures)
		rss = append(rss, peak)
		if err := d.stop(); err != nil {
			return nil, err
		}

		r, err := startDaemon(o.nassim, mirror)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		got, err = warmup(r, l.setupReqs)
		if err != nil {
			r.kill()
			return nil, err
		}
		restarts = append(restarts, time.Since(t).Seconds())
		checkSetup(got, "restarted")
		if err := r.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(mirror)
	}
	m := res.metrics
	m.set("setup_s", median(setups), "s")
	m.set("cold_s", median(colds), "s")
	m.set("restart_s", median(restarts), "s")
	m.set("peak_rss_mb", median(rss), "MB")
	quiet := quietWindows(pooled.windows)
	lat, quietTime := inWindows(quiet, pooled.ends, pooled.lat)
	m.set("rps", float64(len(lat))/quietTime.Seconds(), "req/s")
	m.set("p50_ms", percentile(lat, 50)*1e3, "ms")
	m.set("p90_ms", percentile(lat, 90)*1e3, "ms")
	res.diag("measure.requests", float64(len(pooled.lat)), "count")
	res.diag("measure.quiet_requests", float64(len(lat)), "count")
	res.diag("measure.steal_share", meanSteal(pooled.windows), "ratio")
	res.diag("measure.quiet_steal_share", meanSteal(quiet), "ratio")
	res.diag("measure.all_rps", float64(len(pooled.lat))/pooled.wall.Seconds(), "req/s")
	res.diag("measure.all_p50_ms", percentile(pooled.lat, 50)*1e3, "ms")
	res.diag("measure.all_p90_ms", percentile(pooled.lat, 90)*1e3, "ms")
	if p99, beyond, ok := tailPercentile(lat, 99); ok {
		res.diag("tail.p99_ms", p99*1e3, "ms")
		res.diag("tail.p99_beyond", float64(beyond), "count")
	}
	if o.trace {
		if err := serveLayers(o, res, l, pooled, traced, tracedBefore, tracedAfter); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// compactVendors extracts the top-level vendors value of a result
// document, compacted.
func compactVendors(doc []byte) ([]byte, error) {
	var v struct {
		Vendors json.RawMessage `json:"vendors"`
	}
	if err := json.Unmarshal(doc, &v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Vendors); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeSpans(o *options, part string, spans []span) error {
	tr := &tracer{spans: spans}
	return tr.writeFile(spansPath(o, part))
}

// spansPath names the span file of one part of a traced run.
func spansPath(o *options, part string) string {
	return filepath.Join(o.traces, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, part))
}
