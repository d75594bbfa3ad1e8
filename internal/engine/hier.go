package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/plist"
	"repro/internal/query"
)

// hsKind selects the propagation rules of the three stack algorithms.
type hsKind uint8

const (
	kindPC  hsKind = iota // Fig 2: parents/children — immediate relation only
	kindAD                // Fig 4: ancestors/descendants — transitive roll-down
	kindADc               // Fig 5: path-constrained — L3 entries block propagation
)

// hsFrame is one stack entry of the algorithms: the element's key and
// labels plus, per tracked aggregate spec, its own contribution and the
// running above/below statistics. Frames live on the spillable stack;
// the current top is kept decoded in a register. At most three are
// decoded at a time (the top, the element arriving, the frame coming
// back from the stack), so a pass recycles them: key and statistics are
// buffers the frame owns.
type hsFrame struct {
	key     []byte
	label   uint8
	depth   int
	slot    int64      // index into L1 (annotation slot), -1 if not in L1
	stats   []aggStats // backs the three views below
	contrib []aggStats
	above   []aggStats
	below   []aggStats
}

func newFrame(nSpecs int) *hsFrame {
	f := &hsFrame{stats: make([]aggStats, 3*nSpecs)}
	f.contrib = f.stats[:nSpecs:nSpecs]
	f.above = f.stats[nSpecs : 2*nSpecs : 2*nSpecs]
	f.below = f.stats[2*nSpecs:]
	return f
}

func keyIsAncestor(a, b []byte) bool { return len(a) < len(b) && bytes.HasPrefix(b, a) }

// encodeFrame appends the frame's stack encoding to b.
func encodeFrame(b []byte, f *hsFrame) []byte {
	b = binary.AppendVarint(b, int64(len(f.key)))
	b = append(b, f.key...)
	b = append(b, f.label)
	b = binary.AppendVarint(b, int64(f.depth))
	b = binary.AppendVarint(b, f.slot)
	for si := range f.contrib {
		for _, s := range [...]aggStats{f.contrib[si], f.above[si], f.below[si]} {
			for _, v := range s.ints() {
				b = binary.AppendVarint(b, v)
			}
		}
	}
	return b
}

// decodeFrame decodes b into f, whose statistics are sized already.
func decodeFrame(b []byte, f *hsFrame) error {
	i := 0
	get := func() (int64, error) {
		v, n := binary.Varint(b[i:])
		if n <= 0 {
			return 0, fmt.Errorf("engine: corrupt stack frame")
		}
		i += n
		return v, nil
	}
	klen, err := get()
	if err != nil {
		return err
	}
	if klen < 0 || klen > int64(len(b)-i) {
		return fmt.Errorf("engine: corrupt stack frame key")
	}
	f.key = append(f.key[:0], b[i:i+int(klen)]...)
	i += int(klen)
	if i >= len(b) {
		return fmt.Errorf("engine: corrupt stack frame label")
	}
	f.label = b[i]
	i++
	d, err := get()
	if err != nil {
		return err
	}
	f.depth = int(d)
	if f.slot, err = get(); err != nil {
		return err
	}
	var ints [statsInts]int64
	for si := range f.contrib {
		for _, dst := range [...]*aggStats{&f.contrib[si], &f.above[si], &f.below[si]} {
			for j := range ints {
				if ints[j], err = get(); err != nil {
					return err
				}
			}
			*dst = decodeStats(ints[:])
		}
	}
	return nil
}

// ComputeHSPC is Algorithm ComputeHSPC (Figure 2): the stack-based
// computation of the parents and children operators.
func (e *Engine) ComputeHSPC(op query.HierOp, l1, l2 *plist.List) (*plist.List, error) {
	if op != query.OpParents && op != query.OpChildren {
		return nil, fmt.Errorf("engine: ComputeHSPC does not handle %s", op)
	}
	return e.EvalHier(op, l1, l2, nil, nil)
}

// ComputeHSAD is Algorithm ComputeHSAD (Figure 4): ancestors and
// descendants.
func (e *Engine) ComputeHSAD(op query.HierOp, l1, l2 *plist.List) (*plist.List, error) {
	if op != query.OpAncestors && op != query.OpDescendants {
		return nil, fmt.Errorf("engine: ComputeHSAD does not handle %s", op)
	}
	return e.EvalHier(op, l1, l2, nil, nil)
}

// ComputeHSADc is Algorithm ComputeHSADc (Figure 5): the path-
// constrained ancestorsc and descendantsc operators.
func (e *Engine) ComputeHSADc(op query.HierOp, l1, l2, l3 *plist.List) (*plist.List, error) {
	if !op.Ternary() {
		return nil, fmt.Errorf("engine: ComputeHSADc does not handle %s", op)
	}
	return e.EvalHier(op, l1, l2, l3, nil)
}

// ComputeHSAgg is the family of Section 6.4 (Figure 6 shows the
// count($2)=max(count($2)) instantiation): the stack algorithms extended
// to compute arbitrary distributive/algebraic aggregate selections.
func (e *Engine) ComputeHSAgg(op query.HierOp, l1, l2, l3 *plist.List, sel *query.AggSel) (*plist.List, error) {
	return e.EvalHier(op, l1, l2, l3, sel)
}

// EvalHier evaluates any hierarchical selection operator, with or
// without an aggregate selection filter, in a single stack pass over the
// lexicographic merge of the operand lists followed by one or two scans
// of L1. A nil sel means the plain L1 semantics (count($2) > 0).
func (e *Engine) EvalHier(op query.HierOp, l1, l2, l3 *plist.List, sel *query.AggSel) (*plist.List, error) {
	if op.Ternary() != (l3 != nil) {
		return nil, fmt.Errorf("engine: %s needs %sthird operand", op, map[bool]string{true: "a ", false: "no "}[op.Ternary()])
	}
	var kind hsKind
	switch op {
	case query.OpParents, query.OpChildren:
		kind = kindPC
	case query.OpAncestors, query.OpDescendants:
		kind = kindAD
	default:
		kind = kindADc
	}
	// Witnesses of p/a/ac are ancestors: stack "below". c/d/dc: "above".
	useBelow := op == query.OpParents || op == query.OpAncestors || op == query.OpAncestorsC

	specs := witnessSpecs(sel)
	nSpecs := len(specs)
	sa := &setAccs{n1: l1.Count()}

	ann, err := newAnnFile(e.disk(), annSlotSize(nSpecs), l1.Count())
	if err != nil {
		return nil, err
	}
	defer ann.free()

	// Phase 1: the stack pass over the lexicographic merge.
	var m *plist.Merge
	if l3 != nil {
		m = plist.NewMerge(l1.Reader(), l2.Reader(), l3.Reader())
	} else {
		m = plist.NewMerge(l1.Reader(), l2.Reader())
	}
	stack := plist.NewStack(e.disk(), e.cfg.StackWindow)
	defer stack.Release()

	var top *hsFrame
	nextSlot := int64(0)
	var free []*hsFrame // decoded frames not in use, recycled
	getFrame := func() *hsFrame {
		if n := len(free); n > 0 {
			f := free[n-1]
			free = free[:n-1]
			return f
		}
		return newFrame(nSpecs)
	}
	var frameBuf []byte // encodeFrame's buffer; Push copies it

	finalize := func(f *hsFrame) error {
		if f.label&1 == 0 {
			return nil
		}
		dir := f.above
		if useBelow {
			dir = f.below
		}
		if err := ann.setStats(f.slot, dir); err != nil {
			return err
		}
		sa.foldWitness(sel, specs, dir)
		return nil
	}

	// pop finalizes the top frame, restores the previous frame from the
	// stack, and applies the kind's roll-down rule.
	pop := func() error {
		t := top
		if err := finalize(t); err != nil {
			return err
		}
		if stack.Empty() {
			top = nil
			free = append(free, t)
			return nil
		}
		raw, err := stack.Pop()
		if err != nil {
			return err
		}
		nt := getFrame()
		if err := decodeFrame(raw, nt); err != nil {
			return err
		}
		switch kind {
		case kindAD:
			for si := range nt.above {
				nt.above[si].merge(t.above[si])
			}
		case kindADc:
			if t.label&4 == 0 { // not a blocker: roll down
				for si := range nt.above {
					nt.above[si].merge(t.above[si])
				}
			}
		}
		free = append(free, t)
		top = nt
		return nil
	}

	for {
		rec, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f := getFrame()
		f.key = append(f.key[:0], rec.Key...)
		f.label, f.depth, f.slot = rec.Label, model.KeyDepth(rec.Key), -1
		clear(f.stats)
		if rec.Label&1 != 0 {
			f.slot = nextSlot
			nextSlot++
		}
		if rec.Label&2 != 0 {
			for si, attr := range specs {
				f.contrib[si] = foldEntryValues(rec, attr)
			}
		}
		// Pop non-ancestors of the new element.
		for top != nil && !keyIsAncestor(top.key, f.key) {
			if err := pop(); err != nil {
				return nil, err
			}
		}
		if top != nil {
			t := top
			switch kind {
			case kindPC:
				if t.depth+1 == f.depth { // immediate parent on stack
					if f.label&2 != 0 {
						for si := range t.above {
							t.above[si].merge(f.contrib[si])
						}
					}
					if t.label&2 != 0 {
						for si := range f.below {
							f.below[si].merge(t.contrib[si])
						}
					}
				}
			case kindAD:
				if f.label&2 != 0 {
					for si := range t.above {
						t.above[si].merge(f.contrib[si])
					}
				}
				for si := range f.below {
					f.below[si].merge(t.below[si])
					if t.label&2 != 0 {
						f.below[si].merge(t.contrib[si])
					}
				}
			case kindADc:
				if f.label&2 != 0 {
					for si := range t.above {
						t.above[si].merge(f.contrib[si])
					}
				}
				blocker := t.label&4 != 0
				for si := range f.below {
					if !blocker {
						f.below[si].merge(t.below[si])
					}
					if t.label&2 != 0 {
						f.below[si].merge(t.contrib[si])
					}
				}
			}
			frameBuf = encodeFrame(frameBuf[:0], t)
			if err := stack.Push(frameBuf); err != nil {
				return nil, err
			}
			free = append(free, t)
		}
		top = f
	}
	for top != nil {
		if err := pop(); err != nil {
			return nil, err
		}
	}

	// Phase 2a: self-based entry-set accumulators need one L1 scan.
	if needsSelfPrePass(sel) {
		rd := l1.Reader()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			sa.foldSelf(sel, rec)
		}
	}

	// Phase 2: scan L1 in order, apply the selection, emit.
	w := plist.NewWriter(e.disk())
	rd := l1.Reader()
	slot := int64(0)
	wstats := make([]aggStats, nSpecs)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, w.Abort(err)
		}
		if err := ann.getStats(slot, wstats); err != nil {
			return nil, w.Abort(err)
		}
		slot++
		if evalAggSel(sel, rec, specs, wstats, sa) {
			if err := w.Append(clean(rec)); err != nil {
				return nil, w.Abort(err)
			}
		}
	}
	return w.Close()
}
