package learn

import "context"

// BatchTeacher is an optional Teacher extension for teachers that can answer
// several independent output queries at once — on parallel goroutines, over
// replicated hardware interfaces, or by any other means. The learner detects
// it and dispatches its observation-table rows and conformance-suite words in
// batches instead of one query at a time.
//
// Answers[i] must be the output word of words[i]; the batch carries no
// ordering constraint between words, which is what makes CacheQuery-style
// learning embarrassingly parallel: every membership query starts from the
// cache's reset state.
type BatchTeacher interface {
	Teacher
	// OutputQueryBatch answers len(words) independent output queries.
	OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error)
}

// BatchHinter is an optional BatchTeacher refinement advertising how many
// queries the teacher can usefully answer concurrently. The learner scales
// its prefetch chunks to the hint — in particular, a hint of 1 (no real
// parallelism available) keeps the learning loop exactly serial, paying no
// speculative queries. The hint is about useful batch width, not goroutine
// count: a teacher answering batches in one pass on one core — a
// simulator-backed polca.Oracle — reports a constant width so chunks form
// even where goroutine fan-out would not pay.
type BatchHinter interface {
	BatchHint() int
}
