package matchers

import "context"

// PredictCtx is the single cancellation path shared by the CLIs and the
// serving subsystem: it runs m.Predict under the context's deadline.
//
// When the context can never be cancelled (context.Background, or no
// -timeout flag set), the batch call runs inline — bit-identical behaviour
// and zero overhead versus calling Predict directly. Otherwise the batch
// runs in a goroutine and the call returns the context's error as soon as
// the deadline expires or the caller cancels; an abandoned batch finishes
// in the background and its result is discarded (matcher predictions are
// pure CPU work with no external effects, so discarding is safe — callers
// bound batch sizes to bound the wasted work).
func PredictCtx(ctx context.Context, m Matcher, task Task) ([]bool, error) {
	if task.Ctx == nil {
		// Thread the caller's context into the task so matchers can
		// attribute stage timings to it (see Task.Ctx).
		task.Ctx = ctx
	}
	if ctx == nil || ctx.Done() == nil {
		return m.Predict(task), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan []bool, 1)
	go func() { ch <- m.Predict(task) }()
	select {
	case out := <-ch:
		return out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
