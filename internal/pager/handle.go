package pager

// ReadHandle is a reader's path onto a Disk: it performs the same
// counted page reads as Disk.Read, but accumulates onto a shard
// assigned at creation, so the many readers of concurrent queries on
// one shared disk never contend on one counter word, and optionally
// also onto a query's Meter.
//
// Every plist.Reader and plist.RandomReader owns one ReadHandle, and
// the Disk's global counters stay exact no matter how many handles
// read concurrently: each page access lands exactly one atomic
// increment (DESIGN.md §10).
type ReadHandle struct {
	d     *Disk
	shard *statsShard
	meter *Meter // optional per-query attribution sink
}

// NewReadHandle creates a read handle for this device. Handles are
// cheap; create one per reader, not one per read.
func (d *Disk) NewReadHandle() *ReadHandle {
	i := d.nextHandle.Add(1)
	return &ReadHandle{d: d, shard: &d.shards[i&(statsShards-1)]}
}

// NewMeteredReadHandle is NewReadHandle with a per-query Meter attached:
// every read through the handle additionally lands one increment on m,
// attributing shared-device I/O to the query that owns the meter. A nil
// meter yields a plain handle.
func (d *Disk) NewMeteredReadHandle(m *Meter) *ReadHandle {
	h := d.NewReadHandle()
	h.meter = m
	return h
}

// Read copies page id into buf exactly like Disk.Read, counting the
// read on the handle's shard and on its meter, if any.
func (h *ReadHandle) Read(id PageID, buf []byte) error {
	if err := h.d.readCounted(id, buf, h.shard); err != nil {
		return err
	}
	if h.meter != nil {
		h.meter.reads.Add(1)
	}
	return nil
}

// Disk returns the device this handle reads from.
func (h *ReadHandle) Disk() *Disk { return h.d }
