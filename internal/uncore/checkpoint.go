package uncore

// Checkpoint support: an Uncore's State deep-copies the LLC (lines,
// policy metadata, statistics), the bus and DRAM cursors, the MSHR file,
// the write buffer, the per-core page tables with the bump allocator's
// position, the translation caches, the LLC prefetchers and the LLC
// residency bitmap into a reusable buffer. pfScratch is deliberately not
// state — it is dead between Access calls — and the MSHR tag counts are
// rebuilt from the MSHR file on Restore. Fields are exported so snapshots survive
// encoding/gob persistence; page tables are flattened to parallel slices
// because gob cannot be trusted with map iteration order (the contents,
// not the order, are the state). Snapshot into a warmed buffer and
// Restore are allocation-free as long as the page tables have not grown
// past the buffer's capacity.

import (
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/mem"
)

// PageTableState is one core's page table, flattened for persistence.
// Entry i maps VPages[i] -> PPages[i]; order is unspecified.
type PageTableState struct {
	VPages []uint64
	PPages []uint64
}

// State is a reusable deep snapshot of an Uncore.
type State struct {
	Stats Stats // raw counters (derived fields are recomputed by Stats())

	LLC  cache.State
	Bus  mem.BusState
	DRAM mem.DRAMState
	Pref cache.StrideStreamState

	MSHRLine []uint64
	MSHRDone []uint64
	MSHRMax  uint64

	WriteBuf []uint64

	PageTables []PageTableState
	NextPage   uint64

	XlatVPage []uint64
	XlatPPage []uint64

	Resident []uint64
}

// Snapshot deep-copies the uncore's mutable state into the buffer. The
// first call grows the buffer's slices; subsequent calls allocate nothing
// unless a page table outgrew its previous capacity.
func (u *Uncore) Snapshot(into *State) {
	if u.prefSS == nil {
		panic("uncore: cannot snapshot a non-standard LLC prefetcher")
	}
	into.Stats = u.stats
	u.llc.Snapshot(&into.LLC)
	u.bus.Snapshot(&into.Bus)
	u.dram.Snapshot(&into.DRAM)
	u.prefSS.Snapshot(&into.Pref)

	into.MSHRLine = append(into.MSHRLine[:0], u.mshrLine...)
	into.MSHRDone = append(into.MSHRDone[:0], u.mshrDone...)
	into.MSHRMax = u.mshrMax
	into.WriteBuf = append(into.WriteBuf[:0], u.writeBuf...)

	if len(into.PageTables) != len(u.pageTables) {
		into.PageTables = make([]PageTableState, len(u.pageTables))
	}
	for i, pt := range u.pageTables {
		ps := &into.PageTables[i]
		ps.VPages = ps.VPages[:0]
		ps.PPages = ps.PPages[:0]
		for v, p := range pt {
			ps.VPages = append(ps.VPages, v)
			ps.PPages = append(ps.PPages, p)
		}
	}
	into.NextPage = u.nextPage

	into.XlatVPage = into.XlatVPage[:0]
	into.XlatPPage = into.XlatPPage[:0]
	for i := range u.xlat {
		into.XlatVPage = append(into.XlatVPage, u.xlat[i].vpage)
		into.XlatPPage = append(into.XlatPPage, u.xlat[i].ppage)
	}

	into.Resident = append(into.Resident[:0], u.resident...)
}

// Restore overwrites the uncore's mutable state from the buffer. The
// target must share the snapshot source's configuration; the page-table
// maps are cleared and refilled in place (their buckets are retained, so
// restoring is allocation-free at steady state).
func (u *Uncore) Restore(from *State) {
	if u.prefSS == nil {
		panic("uncore: cannot restore a non-standard LLC prefetcher")
	}
	if len(from.PageTables) != len(u.pageTables) {
		panic(fmt.Sprintf("uncore: restore across core counts (%d -> %d)",
			len(from.PageTables), len(u.pageTables)))
	}
	u.stats = from.Stats
	u.llc.Restore(&from.LLC)
	u.bus.Restore(&from.Bus)
	u.dram.Restore(&from.DRAM)
	u.prefSS.Restore(&from.Pref)

	copy(u.mshrLine, from.MSHRLine)
	copy(u.mshrDone, from.MSHRDone)
	u.countMSHRTags()
	u.mshrMax = from.MSHRMax
	u.writeBuf = append(u.writeBuf[:0], from.WriteBuf...)

	for i, ps := range from.PageTables {
		pt := u.pageTables[i]
		clear(pt)
		for j, v := range ps.VPages {
			pt[v] = ps.PPages[j]
		}
	}
	u.nextPage = from.NextPage

	for i := range u.xlat {
		u.xlat[i].vpage = from.XlatVPage[i]
		u.xlat[i].ppage = from.XlatPPage[i]
	}

	u.resident = append(u.resident[:0], from.Resident...)
}

// SetPolicy swaps the LLC's replacement policy for a fresh instance of
// the named policy seeded with seed, keeping the cache contents (lines,
// dirtiness, statistics). It is the shared-warmup sweep's fan-out hook:
// warm once under a base policy, snapshot, then restore + SetPolicy for
// each variant.
func (u *Uncore) SetPolicy(name cache.PolicyName, seed int64) error {
	pol, err := cache.NewPolicy(name, seed)
	if err != nil {
		return err
	}
	if err := u.llc.SetPolicy(pol); err != nil {
		return err
	}
	u.cfg.Policy = name
	u.cfg.PolicySeed = seed
	return nil
}
