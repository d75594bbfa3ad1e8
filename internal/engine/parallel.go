package engine

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/plist"
	"repro/internal/query"
)

// evalChildren evaluates the operands of one operator and returns their
// result lists in operand order. This is the engine's only scheduling
// point (DESIGN.md §9): with Workers > 1 and no tracer attached, each
// operand after the first is handed to a pool goroutine when a worker
// slot is free, and evaluated inline otherwise; the first operand always
// runs inline so the calling goroutine does useful work instead of
// blocking. Slot acquisition never blocks, so nested operators cannot
// deadlock on the pool however deep the plan is.
//
// The serial path is taken when the engine has no pool or when the
// context carries an obs.Tracer: spans attribute exact per-operator I/O
// deltas, which is only sound when operators run one at a time (the
// ownership rule in pager.Stats), and the tracer itself is
// single-goroutine. EXPLAIN therefore observes the serial plan; plain
// evaluation runs parallel. Results are identical either way.
//
// On error, sibling evaluations are cancelled, every already-produced
// list is freed, and the first non-cancellation error is returned (so a
// real failure is not masked by the context.Canceled its cancellation
// induced in siblings).
func (e *Engine) evalChildren(ctx context.Context, qs ...query.Query) ([]*plist.List, error) {
	if e.sem == nil || len(qs) < 2 || obs.FromContext(ctx) != nil {
		out := make([]*plist.List, len(qs))
		for i, q := range qs {
			l, err := e.EvalContext(ctx, q)
			if err != nil {
				freeAll(out...)
				return nil, err
			}
			out[i] = l
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]*plist.List, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := 1; i < len(qs); i++ {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-e.sem }()
				out[i], errs[i] = e.EvalContext(ctx, qs[i])
				if errs[i] != nil {
					cancel()
				}
			}(i)
		default:
			out[i], errs[i] = e.EvalContext(ctx, qs[i])
			if errs[i] != nil {
				cancel()
			}
		}
	}
	out[0], errs[0] = e.EvalContext(ctx, qs[0])
	if errs[0] != nil {
		cancel()
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		freeAll(out...)
		return nil, firstErr
	}
	return out, nil
}
