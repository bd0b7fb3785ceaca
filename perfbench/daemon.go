package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Daemon shape and load. Two workers, as for a 2-CPU host (POST /recheck
// replays at GOMAXPROCS). The queue cap equals the burst, so the closing
// burst is never refused.
const (
	daemonWorkers = 2
	burstBlocks   = 2 // the burst submits this many blocks of the job pool
	openBlocks    = 2 // open-loop arrivals per round, in blocks of the pool
	pollEvery     = 5 * time.Millisecond
	roundTimeout  = 120 * time.Second
)

// daemonEnv is an in-process dpvd: a service.Daemon over a DiskStore,
// served by an httptest loopback server.
type daemonEnv struct {
	d   *service.Daemon
	srv *httptest.Server
	reg *obs.Registry
}

func startDaemon(dir string, queueCap int, reg *obs.Registry) (*daemonEnv, error) {
	st, err := service.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	d, err := service.New(service.Options{
		Store:       st,
		Workers:     daemonWorkers,
		QueueCap:    queueCap,
		Obs:         reg,
		RetryJitter: -1,
	})
	if err != nil {
		return nil, err
	}
	if _, err := d.Recover(); err != nil {
		return nil, err
	}
	d.Start()
	return &daemonEnv{d: d, srv: httptest.NewServer(d.Handler(false)), reg: reg}, nil
}

// close stops the server, then drains the daemon and waits for its
// workers.
func (e *daemonEnv) close() {
	e.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.d.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// counters reads the daemon's /debug/vars counters.
func (e *daemonEnv) counters(c *http.Client) (map[string]int64, error) {
	resp, err := c.Get(e.srv.URL + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return snap.Counters, nil
}

// uploadBody builds the multipart upload dpvd accepts for an input.
func uploadBody(in *input) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct{ name, path string }{{"formula", in.CNF}, {"proof", in.Trace}} {
		w, err := mw.CreateFormFile(part.name, part.name)
		if err != nil {
			return nil, "", err
		}
		b, err := os.ReadFile(part.path)
		if err != nil {
			return nil, "", err
		}
		w.Write(b)
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// arrival is one scheduled upload.
type arrival struct {
	in   *input
	due  time.Duration // offset from the round's start (open loop only)
	read bool          // once verified, also GET /lrat and POST /recheck
}

// scheduler draws the seeded dpvd schedule, one round at a time: open-loop
// arrivals at a fixed rate with a seeded jitter of up to a quarter gap,
// then a burst. Arrivals come in blocks that each hold every pool input
// once in a seeded order, so every round has the same job mix and only the
// order changes from round to round; each round draws a fresh order, so a
// run averages over many orders instead of replaying one. Each input's
// uploads alternate between read and not read, starting from a seeded
// parity; burst uploads are never read.
type scheduler struct {
	rng    *rand.Rand
	pool   []*input
	gap    time.Duration
	parity []bool
	next   []int
}

func newScheduler(pool []*input, seed int64, rate float64) *scheduler {
	s := &scheduler{
		rng:    rand.New(rand.NewSource(seed)),
		pool:   pool,
		gap:    time.Duration(float64(time.Second) / rate),
		parity: make([]bool, len(pool)),
	}
	for i := range s.parity {
		s.parity[i] = s.rng.Intn(2) == 1
	}
	return s
}

func (s *scheduler) pick() arrival {
	if len(s.next) == 0 {
		s.next = s.rng.Perm(len(s.pool))
	}
	j := s.next[0]
	s.next = s.next[1:]
	s.parity[j] = !s.parity[j]
	return arrival{in: s.pool[j], read: s.parity[j]}
}

// round draws the next round's schedule.
func (s *scheduler) round(nOpen, nBurst int) (open, burst []arrival) {
	for i := 0; i < nOpen; i++ {
		a := s.pick()
		a.due = time.Duration(i)*s.gap + time.Duration(s.rng.Int63n(int64(s.gap/2))) - s.gap/4
		if a.due < 0 {
			a.due = 0
		}
		open = append(open, a)
	}
	for i := 0; i < nBurst; i++ {
		a := s.pick()
		a.read = false // reads would slow the drain the burst measures
		burst = append(burst, a)
	}
	return open, burst
}

// jobRecord is what the load generator observed for one upload.
type jobRecord struct {
	a                 arrival
	burst             bool
	due, sent, posted time.Time
	done              time.Time // verdict observed (or refusal answered)
	code              int       // POST status
	id                string
	got               string // observed verdict, compared with a.in.Want
	verdict           *service.Verdict
	lratTime, recheck time.Duration
	lratDigest        string
	err               error
}

// roundResult is one round of the load generator.
type roundResult struct {
	recs       []*jobRecord
	burstStart time.Time
	burstEnd   time.Time
	deltas     map[string]int64 // /debug/vars counter deltas (traced only)
}

// runRound plays one schedule against the daemon with two connections:
// one goroutine submits at the scheduled times (open loop), the other
// polls verdicts and issues the reads. After the open-loop jobs have their
// verdicts, the burst is submitted back to back.
func (e *daemonEnv) runRound(open, burst []arrival) (*roundResult, error) {
	submitC := newClient()
	pollC := newClient()
	defer submitC.CloseIdleConnections()
	defer pollC.CloseIdleConnections()

	var before map[string]int64
	if e.reg != nil {
		var err error
		if before, err = e.counters(pollC); err != nil {
			return nil, err
		}
	}

	rr := &roundResult{}
	// Sized to the number of sends, so the submitter never blocks on the
	// poller.
	accepted := make(chan *jobRecord, len(open)+len(burst))
	var pending sync.WaitGroup
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		e.poll(pollC, accepted, &pending)
	}()

	submit := func(a arrival, due time.Time, isBurst bool) {
		rec := &jobRecord{a: a, burst: isBurst, due: due}
		rr.recs = append(rr.recs, rec)
		rec.sent = time.Now()
		rec.code, rec.id, rec.err = e.post(submitC, a.in)
		rec.posted = time.Now()
		if rec.err == nil && rec.code == http.StatusAccepted {
			pending.Add(1)
			accepted <- rec
			return
		}
		rec.done = rec.posted
		if rec.err == nil && (rec.code == http.StatusUnprocessableEntity || rec.code == http.StatusBadRequest || rec.code == http.StatusRequestEntityTooLarge) {
			rec.got = wantBadInput
		}
	}
	start := time.Now()
	for _, a := range open {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		submit(a, due, false)
	}
	pending.Wait()
	rr.burstStart = time.Now()
	for _, a := range burst {
		submit(a, rr.burstStart, true)
	}
	close(accepted)
	pollWG.Wait()
	for _, rec := range rr.recs {
		if rec.burst && rec.done.After(rr.burstEnd) {
			rr.burstEnd = rec.done
		}
	}

	if e.reg != nil {
		// A verdict is visible before the daemon counts the job completed;
		// wait for the count so the deltas cover the whole round.
		var accepted int64
		for _, rec := range rr.recs {
			if rec.code == http.StatusAccepted {
				accepted++
			}
		}
		var after map[string]int64
		for wait := time.Now().Add(10 * time.Second); ; {
			var err error
			if after, err = e.counters(pollC); err != nil {
				return nil, err
			}
			if after["service.jobs_completed"]-before["service.jobs_completed"] >= accepted || time.Now().After(wait) {
				break
			}
			time.Sleep(pollEvery)
		}
		rr.deltas = map[string]int64{}
		for k, v := range after {
			rr.deltas[k] = v - before[k]
		}
	}
	return rr, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   roundTimeout,
	}
}

func (e *daemonEnv) post(c *http.Client, in *input) (code int, id string, err error) {
	resp, err := c.Post(e.srv.URL+"/v1/jobs", in.CType, bytes.NewReader(in.Body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sub struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&sub)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, sub.ID, err
}

// poll collects verdicts for accepted jobs until the submitter closes
// accepted and every accepted job has one, issuing the reads of verified
// jobs as their verdicts arrive. Past the round's deadline every job still
// waiting fails with a timeout.
func (e *daemonEnv) poll(c *http.Client, accepted <-chan *jobRecord, pending *sync.WaitGroup) {
	deadline := time.Now().Add(roundTimeout)
	var live []*jobRecord
	for {
		if len(live) == 0 {
			rec, ok := <-accepted
			if !ok {
				return
			}
			live = append(live, rec)
		}
	drain:
		for {
			select {
			case rec, ok := <-accepted:
				if !ok {
					break drain
				}
				live = append(live, rec)
			default:
				break drain
			}
		}
		expired := time.Now().After(deadline)
		keep := live[:0]
		for _, rec := range live {
			done := true
			if expired {
				rec.err = fmt.Errorf("no verdict within %v", roundTimeout)
			} else {
				done, rec.err = e.status(c, rec)
			}
			if done || rec.err != nil {
				pending.Done()
				continue
			}
			keep = append(keep, rec)
		}
		live = keep
		if len(live) > 0 {
			time.Sleep(pollEvery)
		}
	}
}

// status polls one job; when it has a verdict it records it and, for a
// sampled verified job, times GET /lrat and POST /recheck.
func (e *daemonEnv) status(c *http.Client, rec *jobRecord) (bool, error) {
	var st struct {
		State  service.State      `json:"state"`
		Result *service.JobResult `json:"result"`
	}
	if err := getJSON(c, e.srv.URL+"/v1/jobs/"+rec.id, &st); err != nil {
		return false, err
	}
	if st.State != service.StateDone || st.Result == nil {
		return false, nil
	}
	rec.done = time.Now()
	rec.got = string(st.Result.Status)
	rec.verdict = st.Result.Verdict
	if !rec.a.read || st.Result.Status != service.StatusVerified {
		return true, nil
	}
	t := time.Now()
	resp, err := c.Get(e.srv.URL + "/v1/jobs/" + rec.id + "/lrat")
	if err != nil {
		return true, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.lratTime = time.Since(t)
	if err != nil || resp.StatusCode != http.StatusOK {
		return true, fmt.Errorf("GET /lrat: %d %v", resp.StatusCode, err)
	}
	rec.lratDigest = bytesDigest(b)
	t = time.Now()
	resp, err = c.Post(e.srv.URL+"/v1/jobs/"+rec.id+"/recheck", "", nil)
	if err != nil {
		return true, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.recheck = time.Since(t)
	if resp.StatusCode != http.StatusOK {
		return true, fmt.Errorf("POST /recheck: %d", resp.StatusCode)
	}
	return true, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// account checks every record of a round against its known answer, counts
// operations and failures, and returns the round's work fingerprint: per
// input, the verdict fields that are exact work counts and the digest of
// the served LRAT proof. Repeated uploads of one input must agree.
func (rr *roundResult) account(rep *report) *fingerprint {
	fp := newFingerprint()
	seen := map[string]*jobRecord{}
	for _, rec := range rr.recs {
		name := rec.a.in.Name
		failed := rec.err != nil || rec.code == http.StatusTooManyRequests || rec.code >= 500
		rep.countOp(failed, "%s: upload %s: code %d, %v", name, rec.id, rec.code, rec.err)
		if failed {
			continue
		}
		rep.verdict(name, rec.a.in.Want, rec.got)
		if rec.lratDigest != "" {
			rep.attempted += 2 // GET /lrat and POST /recheck
			if d, ok := fp.Digests[name+".lrat"]; ok && d != rec.lratDigest {
				rep.fail("%s: served LRAT differs between uploads of the same input", name)
			}
			fp.Digests[name+".lrat"] = rec.lratDigest
		}
		if rec.verdict == nil {
			continue
		}
		if prev, ok := seen[name]; ok {
			if !reflect.DeepEqual(prev.verdict, rec.verdict) {
				rep.fail("%s: verdict JSON differs between uploads of the same input", name)
			}
			continue
		}
		seen[name] = rec
		fp.Counters[name+".propagations"] = rec.verdict.Propagations
		fp.Counters[name+".tested"] = int64(rec.verdict.Tested)
		fp.Counters[name+".core_size"] = int64(rec.verdict.CoreSize)
	}
	for _, k := range fingerprintCounters {
		if v, ok := rr.deltas[k]; ok {
			fp.Counters[k] = v
		}
	}
	return fp
}
