package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// result is one synthesize request as the client saw it.
type result struct {
	n        int // index in the timed phase
	model    int
	seed     uint64
	ttfr     time.Duration
	latency  time.Duration
	released int
	err      error
	body     []byte // kept only for the request the output check recomputes
}

// httpRun is what the end-to-end phase measured.
type httpRun struct {
	setups    []time.Duration // fit request sent → last byte of a 1-record synthesize
	modelIDs  []string
	warmup    result // untimed; the output check recomputes it
	results   []result
	wall      time.Duration // timed phase
	sgfdCPU   time.Duration // over the timed phase
	clientCPU time.Duration // over the timed phase
	peakRSS   float64       // MiB, VmHWM at the end of the run
	before    promSample
	after     promSample
	failed    int
}

// newClient is the load generator's HTTP client: one process, at most two
// connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// readBuf is the size of a client's reusable response read buffer.
const readBuf = 64 << 10

// runHTTP fits the workload's panel of models on a fresh sgfd, sends one
// untimed full-size request, then drives the closed-loop timed phase for at
// least the given duration, checking every response.
func runHTTP(client *http.Client, s *sgfd, in *inputs, seconds time.Duration) (*httpRun, error) {
	w := in.w
	run := &httpRun{}
	buf := make([]byte, readBuf)
	for j := 0; j < w.Fits; j++ {
		body, err := in.fitBody(j)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		id, err := fit(client, s.url, body)
		if err != nil {
			return nil, fmt.Errorf("fit %d: %w", j, err)
		}
		r := synthesize(client, s.url, id, w.synthBody(1, 0), buf, false)
		if r.err != nil {
			return nil, fmt.Errorf("first synthesize on model %d: %w", j, r.err)
		}
		run.setups = append(run.setups, time.Since(start))
		run.modelIDs = append(run.modelIDs, id)
	}

	// The first full-size request grows sgfd's heap to its working size and
	// took up to half as long again as the rest, so it runs before the
	// clock starts. Its bytes are kept for the output check.
	seed := in.warmupSeed()
	run.warmup = synthesize(client, s.url, run.modelIDs[0], w.synthBody(w.Records, seed), buf, true)
	run.warmup.seed = seed

	var err error
	if run.before, err = scrapeMetrics(client, s.url); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	// Requests cycle through the panel; a client stops taking new ones once
	// the time is up and a round of the panel is complete, so every run
	// serves every model equally often.
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, readBuf)
			for {
				mu.Lock()
				if time.Since(start) >= seconds && next%w.Fits == 0 {
					mu.Unlock()
					return
				}
				n := next
				next++
				mu.Unlock()
				model := n % w.Fits
				seed := in.requestSeed(n)
				r := synthesize(client, s.url, run.modelIDs[model], w.synthBody(w.Records, seed), buf, false)
				r.n, r.model, r.seed = n, model, seed
				mu.Lock()
				run.results = append(run.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.clientCPU = selfCPU() - self0
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	run.sgfdCPU = cpu1 - cpu0
	if run.after, err = scrapeMetrics(client, s.url); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	if run.peakRSS, err = procHWM(s.pid()); err != nil {
		return nil, err
	}
	for _, r := range run.results {
		if r.err != nil {
			run.failed++
		}
	}
	return run, nil
}

func fit(client *http.Client, url string, body []byte) (string, error) {
	resp, err := client.Post(url+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("decoding fit response %q: %v", raw, err)
	}
	return out.ID, nil
}

// synthesize sends one request and checks its response: status 200, as
// many NDJSON lines as records requested, an X-Sgf-Released trailer that
// agrees, and no trailing error line. buf is the caller's read buffer.
func synthesize(client *http.Client, url, id string, req synthBody, buf []byte, keepBody bool) result {
	body, err := json.Marshal(req)
	if err != nil {
		return result{err: err}
	}
	start := time.Now()
	resp, err := client.Post(url+"/v1/models/"+id+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	var r result
	var sc streamCheck
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if r.ttfr == 0 {
				r.ttfr = time.Since(start)
			}
			sc.write(buf[:n])
			if keepBody {
				r.body = append(r.body, buf[:n]...)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			r.err = rerr
			return r
		}
	}
	r.latency = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, sc.tail)
		return r
	}
	r.released, _ = strconv.Atoi(resp.Trailer.Get("X-Sgf-Released"))
	r.err = sc.check(req.Records, r.released)
	return r
}

// streamCheck follows an NDJSON stream without keeping it: the line count
// and the last few kilobytes.
type streamCheck struct {
	lines int
	tail  []byte
}

// maxLine bounds a record line; a longer last line is not a record.
const maxLine = 4096

func (c *streamCheck) write(p []byte) {
	c.lines += bytes.Count(p, []byte{'\n'})
	c.tail = append(c.tail, p...)
	if len(c.tail) > 2*maxLine {
		c.tail = append(c.tail[:0], c.tail[len(c.tail)-maxLine:]...)
	}
}

func (c *streamCheck) check(want, released int) error {
	if len(c.tail) == 0 || c.tail[len(c.tail)-1] != '\n' {
		return fmt.Errorf("stream does not end with a complete line")
	}
	last := c.tail[:len(c.tail)-1]
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	if bytes.HasPrefix(last, []byte(`{"error"`)) {
		return fmt.Errorf("stream ended in an error line: %s", last)
	}
	if c.lines != want || released != want {
		return fmt.Errorf("streamed %d lines with X-Sgf-Released %d, want %d", c.lines, released, want)
	}
	return nil
}

// selfCPU is the harness's own user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd turns the phase into the end-to-end metrics. A failed request
// misses every latency limit, so it enters the percentiles as +Inf.
func (run *httpRun) endToEnd() map[string]float64 {
	var ttfr, lat []float64
	released, ok := 0, 0
	for _, r := range run.results {
		if r.err != nil {
			ttfr = append(ttfr, math.Inf(1))
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		released += r.released
		ttfr = append(ttfr, ms(r.ttfr))
		lat = append(lat, ms(r.latency))
	}
	return map[string]float64{
		"setup_s":            median(secondsOf(run.setups)),
		"records_per_s":      float64(released) / run.wall.Seconds(),
		"ttfr_p50_ms":        median(ttfr),
		"requests_per_s":     float64(ok) / run.wall.Seconds(),
		"latency_p50_ms":     median(lat),
		"latency_p99_ms":     percentile(lat, 0.99),
		"cpu_ms_per_krecord": ms(run.sgfdCPU) / (float64(released) / 1000),
		"peak_rss_mib":       run.peakRSS,
	}
}
