package plist

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/pager"
)

// Stack is a LIFO of variable-length byte frames backed by pages of a
// Disk, keeping at most a fixed window of pages resident. Pushing past
// the window spills the deepest pages to disk; popping back down
// re-fetches them. This reproduces the paper's observation (proof of
// Theorem 5.1) that "particular stack entries may be swapped out (and
// eventually re-fetched) from the memory multiple times when the stack
// repeatedly grows and shrinks", while total stack I/O stays linear in
// the number of bytes pushed.
type Stack struct {
	disk     *pager.Disk
	window   int
	chunks   []*stackChunk
	resident map[int]struct{}
	top      int64 // byte offset one past the stack top
	count    int
	free     [][]byte // page buffers of evicted and dropped chunks, reused
	frame    []byte   // the frame Pop handed out last, reused
	rec      Record   // the record PopRecord handed out last, reused
	scratch  []byte   // PushRecord's encoding buffer
}

type stackChunk struct {
	id   pager.PageID // 0 until first spilled
	data []byte       // nil iff evicted (valid copy on disk)
}

// NewStack creates a stack that keeps at most window pages resident
// (minimum 2: one being written, one being read across a boundary).
func NewStack(disk *pager.Disk, window int) *Stack {
	if window < 2 {
		window = 2
	}
	return &Stack{disk: disk, window: window, resident: make(map[int]struct{})}
}

// Len reports the number of frames on the stack.
func (s *Stack) Len() int { return s.count }

// Empty reports whether the stack has no frames.
func (s *Stack) Empty() bool { return s.count == 0 }

func (s *Stack) pageSize() int64 { return int64(s.disk.PageSize()) }

func (s *Stack) chunkAt(off int64) int { return int(off / s.pageSize()) }

func (s *Stack) topChunk() int {
	if s.top == 0 {
		return 0
	}
	return s.chunkAt(s.top - 1)
}

// ensure makes the chunks covering [lo, hi) resident, reading spilled
// ones back from disk, then trims the resident set to the window.
func (s *Stack) ensure(lo, hi int64) error {
	if hi <= lo {
		return nil
	}
	first, last := s.chunkAt(lo), s.chunkAt(hi-1)
	for len(s.chunks) <= last {
		s.chunks = append(s.chunks, &stackChunk{})
	}
	for i := first; i <= last; i++ {
		c := s.chunks[i]
		if c.data != nil {
			continue
		}
		if n := len(s.free); n > 0 {
			c.data, s.free = s.free[n-1], s.free[:n-1]
		} else {
			c.data = make([]byte, s.pageSize())
		}
		if c.id != 0 {
			if err := s.disk.Read(c.id, c.data); err != nil {
				return err
			}
		}
		s.resident[i] = struct{}{}
	}
	return s.evict(first, last)
}

// evict spills resident chunks beyond the window, deepest first, never
// evicting the chunks in the active range [keepLo, keepHi].
func (s *Stack) evict(keepLo, keepHi int) error {
	for len(s.resident) > s.window {
		min := -1
		for i := range s.resident {
			if min == -1 || i < min {
				min = i
			}
		}
		if min >= keepLo && min <= keepHi {
			return nil // everything resident is in active use
		}
		c := s.chunks[min]
		if c.id == 0 {
			id, err := s.disk.Alloc()
			if err != nil {
				return err
			}
			c.id = id
		}
		if err := s.disk.Write(c.id, c.data); err != nil {
			return err
		}
		s.free = append(s.free, c.data)
		c.data = nil
		delete(s.resident, min)
	}
	return nil
}

func (s *Stack) writeAt(off int64, b []byte) error {
	if err := s.ensure(off, off+int64(len(b))); err != nil {
		return err
	}
	ps := s.pageSize()
	for len(b) > 0 {
		ci := s.chunkAt(off)
		co := off % ps
		n := copy(s.chunks[ci].data[co:], b)
		b = b[n:]
		off += int64(n)
	}
	return nil
}

func (s *Stack) readAt(off int64, b []byte) error {
	if err := s.ensure(off, off+int64(len(b))); err != nil {
		return err
	}
	ps := s.pageSize()
	for len(b) > 0 {
		ci := s.chunkAt(off)
		co := off % ps
		n := copy(b, s.chunks[ci].data[co:])
		b = b[n:]
		off += int64(n)
	}
	return nil
}

// Push adds a frame to the top of the stack.
func (s *Stack) Push(frame []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	if err := s.writeAt(s.top, frame); err != nil {
		return err
	}
	if err := s.writeAt(s.top+int64(len(frame)), lenBuf[:]); err != nil {
		return err
	}
	s.top += int64(len(frame)) + 4
	s.count++
	return nil
}

// Pop removes and returns the top frame. The frame is the stack's: it is
// valid until the next Pop.
func (s *Stack) Pop() ([]byte, error) {
	if s.count == 0 {
		return nil, fmt.Errorf("plist: pop of empty stack")
	}
	if poisonReads {
		poisonRecord(&s.frame, &s.rec)
	}
	var lenBuf [4]byte
	if err := s.readAt(s.top-4, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > s.top-4 {
		return nil, fmt.Errorf("plist: stack frame of %d bytes on a %d-byte stack", n, s.top-4)
	}
	s.frame = slices.Grow(s.frame[:0], int(n))[:n]
	if err := s.readAt(s.top-4-n, s.frame); err != nil {
		return nil, err
	}
	s.top -= n + 4
	s.count--
	s.dropDead()
	return s.frame, nil
}

// dropDead frees chunks entirely above the top: their contents are
// unreachable, so they are discarded without write-back.
func (s *Stack) dropDead() {
	live := 0
	if s.top > 0 {
		live = s.topChunk() + 1
	}
	for i := live; i < len(s.chunks); i++ {
		c := s.chunks[i]
		if c.id != 0 {
			_ = s.disk.Free(c.id)
		}
		if c.data != nil {
			s.free = append(s.free, c.data)
		}
		delete(s.resident, i)
	}
	s.chunks = s.chunks[:live]
}

// Release frees all disk pages held by the stack.
func (s *Stack) Release() {
	s.top, s.count = 0, 0
	s.dropDead()
}

// PushRecord serializes a record onto the stack.
func (s *Stack) PushRecord(r *Record) error {
	s.scratch = AppendRecord(s.scratch[:0], r)
	return s.Push(s.scratch)
}

// PopRecord pops a record, decoding its header only (see Record). The
// record is the stack's: it is valid until the next Pop or PopRecord.
func (s *Stack) PopRecord() (*Record, error) {
	b, err := s.Pop()
	if err != nil {
		return nil, err
	}
	if err := decodeInto(&s.rec, b); err != nil {
		return nil, err
	}
	return &s.rec, nil
}
