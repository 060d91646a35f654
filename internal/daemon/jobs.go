package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/polca"
)

// jobState is the lifecycle of a learning job. Jobs move
// pending -> running -> {done, failed, canceled}; canceled covers both an
// explicit DELETE and a daemon drain (the engine store keeps every answer
// the job already obtained, so a resubmitted job resumes from there).
type jobState string

const (
	jobPending  jobState = "pending"
	jobRunning  jobState = "running"
	jobDone     jobState = "done"
	jobFailed   jobState = "failed"
	jobCanceled jobState = "canceled"
)

// job is one learning run over a shared engine.
type job struct {
	id     string
	eng    *engine
	opt    learn.Options
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	state      jobState
	errMsg     string
	model      []byte // learned machine JSON (mealy (*Machine).Save bytes)
	states     int    // learned machine control-state count
	artifact   string // models-dir file the model was published to
	learnStats learn.Stats
	created    time.Time
	finished   time.Time
}

// jobStatus is the GET /v1/jobs/{id} document (and the SSE event payload).
// Oracle counters are the engine's cumulative stats — the engine is shared,
// so they can only grow while the job runs; a warm engine starts non-zero.
type jobStatus struct {
	ID         string       `json:"id"`
	Policy     string       `json:"policy"`
	Assoc      int          `json:"assoc"`
	Algo       string       `json:"algo"`
	Suite      string       `json:"suite"`
	Depth      int          `json:"depth"`
	State      jobState     `json:"state"`
	Error      string       `json:"error,omitempty"`
	Created    time.Time    `json:"created"`
	Finished   *time.Time   `json:"finished,omitempty"`
	Oracle     polca.Stats  `json:"oracle"`
	OutNodes   int          `json:"store_out_nodes"`
	ProbeNodes int          `json:"store_probe_nodes"`
	Learn      *learn.Stats `json:"learn,omitempty"`
	States     int          `json:"model_states,omitempty"`
	ModelURL   string       `json:"model_url,omitempty"`
	Artifact   string       `json:"artifact,omitempty"`
}

// snapshot assembles the live status document for a job.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	outN, probeN := j.eng.oracle.StoreFootprint()
	st := jobStatus{
		ID:         j.id,
		Policy:     j.eng.policy,
		Assoc:      j.eng.assoc,
		Algo:       j.opt.Algo.String(),
		Suite:      j.opt.Suite.String(),
		Depth:      j.opt.Depth,
		State:      j.state,
		Error:      j.errMsg,
		Created:    j.created,
		Oracle:     j.eng.oracle.Stats(),
		OutNodes:   outN,
		ProbeNodes: probeN,
		Artifact:   j.artifact,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == jobDone {
		ls := j.learnStats
		st.Learn = &ls
		st.States = j.states
		st.ModelURL = "/v1/jobs/" + j.id + "/model"
	}
	return st
}

// modelBytes returns the learned machine JSON once the job is done.
func (j *job) modelBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobDone {
		return nil, false
	}
	return j.model, true
}

// startJob registers and launches a learning job on the shared engine for
// (policyName, assoc). The job runs on its own goroutine under the server's
// base context, so a drain cancels it at the next query boundary.
func (s *Server) startJob(policyName string, assoc int, opt learn.Options) (*job, error) {
	eng, err := s.engineFor(policyName, assoc)
	if err != nil {
		return nil, err
	}
	if opt.Depth == 0 {
		opt.Depth = 1
	}
	if opt.MaxStates == 0 {
		opt.MaxStates = 100000
	}
	ctx, cancel := context.WithCancel(s.baseCtx)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, errDraining
	}
	s.jobSeq++
	j := &job{
		id:      fmt.Sprintf("j%04d", s.jobSeq),
		eng:     eng,
		opt:     opt,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   jobPending,
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.jobWG.Add(1)
	s.mu.Unlock()

	go s.runJob(ctx, j)
	return j, nil
}

var errDraining = errors.New("daemon: draining, not accepting work")

// runJob executes one learning job to completion (or cancellation) and
// persists its results: the learned-machine JSON into the models dir and a
// final engine snapshot, so both the artifact and the query store survive a
// restart. Runs on its own goroutine; jobWG tracks it for drain.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.jobWG.Done()
	defer j.cancel()
	j.mu.Lock()
	j.state = jobRunning
	j.mu.Unlock()
	s.cfg.Logf("daemon: job %s: learning %s-%d (%s/%s)", j.id, j.eng.policy, j.eng.assoc, j.opt.Algo, j.opt.Suite)

	res, err := learn.Learn(ctx, j.eng.oracle, j.opt)

	// Whatever happened, persist the engine store: a canceled job's
	// answered queries are the checkpoint the resubmitted job resumes
	// from.
	if j.eng.snapPath != "" {
		if serr := s.saveEngineSnapshot(j.eng); serr != nil {
			s.cfg.Logf("daemon: job %s: final snapshot: %v", j.id, serr)
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		var buf bytes.Buffer
		if serr := res.Machine.Save(&buf); serr != nil {
			j.state = jobFailed
			j.errMsg = serr.Error()
			break
		}
		j.state = jobDone
		j.model = buf.Bytes()
		j.states = res.Machine.NumStates
		j.learnStats = res.Stats
		if s.cfg.ModelsDir != "" {
			name := fmt.Sprintf("%s-%d.learned.json", j.eng.policy, j.eng.assoc)
			// Published models are world-readable like the committed ones
			// they sit next to.
			path := filepath.Join(s.cfg.ModelsDir, name)
			if werr := core.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
				_, err := w.Write(j.model)
				return err
			}); werr != nil {
				s.cfg.Logf("daemon: job %s: artifact: %v", j.id, werr)
			} else {
				j.artifact = name
			}
		}
		s.cfg.Logf("daemon: job %s: done, %d states, %d output queries",
			j.id, res.Machine.NumStates, res.Stats.OutputQueries)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = jobCanceled
		j.errMsg = err.Error()
		s.cfg.Logf("daemon: job %s: canceled (%v)", j.id, err)
	default:
		j.state = jobFailed
		j.errMsg = err.Error()
		s.cfg.Logf("daemon: job %s: failed: %v", j.id, err)
	}
	close(j.done)
}

// saveEngineSnapshot serializes concurrent final saves of one engine (two
// jobs on the same engine can finish together; the oracle's checkpointer
// has its own serialization, this path needs one too).
func (s *Server) saveEngineSnapshot(eng *engine) error {
	eng.snapMu.Lock()
	defer eng.snapMu.Unlock()
	return saveSnapshotFor(eng)
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobList returns every job's status, ordered by id.
func (s *Server) jobList() []jobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}
