package lrat

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// Recorder accumulates hinted steps as a verifier derives them. The backward
// checkers visit proof clauses in reverse chronological order, so steps
// arrive in descending ID order and Proof() sorts them; IDs are unique by
// construction (one per verified clause), which makes the sort — and the
// emitted bytes — deterministic.
//
// A Recorder rides inside checkpoints (Encode/DecodeRecorder) so an
// interrupted-then-resumed run emits byte-identical LRAT: the checkpoint
// carries exactly the steps recorded up to the boundary, and the resumed run
// re-records everything after it from the same canonical engine state.
type Recorder struct {
	steps []Step
}

// Record appends one addition step. The clause and hints are copied.
func (r *Recorder) Record(id int64, c cnf.Clause, hints []int64) {
	r.steps = append(r.steps, Step{
		ID:    id,
		C:     append(cnf.Clause(nil), c...),
		Hints: append([]int64(nil), hints...),
	})
}

// Len reports how many steps have been recorded.
func (r *Recorder) Len() int { return len(r.steps) }

// Proof returns the recorded steps sorted by ID as an emission-ready proof.
// Duplicate IDs mean the recorder was driven twice for the same clause — a
// caller bug, reported rather than silently emitted.
func (r *Recorder) Proof() (*Proof, error) {
	steps := append([]Step(nil), r.steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].ID < steps[j].ID })
	for i := 1; i < len(steps); i++ {
		if steps[i].ID == steps[i-1].ID {
			return nil, fmt.Errorf("lrat: duplicate recorded id %d", steps[i].ID)
		}
	}
	return &Proof{Steps: steps}, nil
}

// Encode serializes the recorder (in record order) using the binary proof
// format, for embedding in a checkpoint payload.
func (r *Recorder) Encode() []byte {
	var buf bytes.Buffer
	// The binary writer only fails on the underlying writer, which for a
	// bytes.Buffer cannot happen.
	_ = WriteBinary(&buf, &Proof{Steps: r.steps})
	return buf.Bytes()
}

// Restore replaces the recorder's steps with those of Encode's output.
func (r *Recorder) Restore(b []byte) error {
	restored, err := DecodeRecorder(b)
	if err != nil {
		return err
	}
	*r = *restored
	return nil
}

// DecodeRecorder restores a recorder from Encode's output. Checkpoint
// payloads are CRC-framed by the journal, so limits stay at their defaults.
func DecodeRecorder(b []byte) (*Recorder, error) {
	p, err := ReadBinary(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return &Recorder{steps: p.Steps}, nil
}
