package durable

import (
	"fmt"
	"sync/atomic"

	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// Store is the smartmem-kvd integration: a write-through wrapper around a
// *tmem.Backend implementing the kvstore server surface. Every successful
// persistent-pool mutation is journaled after the backend accepts it —
// including puts a RAM tier (compressed, remote) absorbed, which a
// demotion-tier attachment would never see. The journal is therefore a
// complete mirror of the daemon's persistent state, and a SIGKILL at any
// point loses nothing that was acknowledged over the wire.
//
// Write-through ordering: the backend mutation happens first, the journal
// append second, and a journal failure undoes the backend put (the guest
// sees ETmem, never a false durability promise). After a journal failure
// the store degrades sticky — persistent puts answer ETmem until restart —
// mirroring RemoteTier's transport-failure policy.
type Store struct {
	b        *tmem.Backend
	log      *Log
	degraded atomic.Bool

	// recoveryServed counts gets answered from the journal mirror because
	// the restarted backend no longer held the page (capacity shrank or a
	// tier dropped it across the restart).
	recoveryServed atomic.Uint64
}

// NewStore wraps backend with write-through journaling into log.
func NewStore(b *tmem.Backend, log *Log) *Store {
	return &Store{b: b, log: log}
}

// Backend returns the wrapped backend.
func (s *Store) Backend() *tmem.Backend { return s.b }

// Log returns the journal.
func (s *Store) Log() *Log { return s.log }

// Degraded reports whether journaling has failed and durability is
// suspended.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// RecoveryServed counts gets served from the durable mirror after the
// restarted backend missed.
func (s *Store) RecoveryServed() uint64 { return s.recoveryServed.Load() }

func (s *Store) degrade() { s.degraded.Store(true) }

// RecoverStats summarizes a Recover replay.
type RecoverStats struct {
	// Pools is the number of persistent pools re-created.
	Pools int
	// Pages is the number of pages re-stored into the backend (possibly
	// landing in lower RAM tiers again).
	Pages uint64
	// Dropped counts recovered pages the backend could not hold (capacity
	// shrank across the restart). They stay in the journal mirror and are
	// served from it on Get.
	Dropped uint64
}

// Recover replays the journal's recovered state into the backend: pools
// are re-created under their original wire-visible ids, then every live
// page is re-stored through the full tier stack. Call once, after tiers
// are attached and before serving traffic.
func (s *Store) Recover() (RecoverStats, error) {
	var rs RecoverStats
	for _, p := range s.log.Pools() {
		if err := s.b.RestorePool(p.ID, p.VM, p.Kind); err != nil {
			return rs, fmt.Errorf("durable: recover pool %d: %w", p.ID, err)
		}
		rs.Pools++
	}
	s.log.RangePages(func(key tmem.Key, data []byte) bool {
		if s.b.Put(key, data) == tmem.STmem {
			rs.Pages++
		} else {
			rs.Dropped++
		}
		return true
	})
	return rs, nil
}

// --- kvstore server surface ---

func (s *Store) PageSize() mem.Bytes { return s.b.PageSize() }

func (s *Store) NewPool(vm tmem.VMID, kind tmem.PoolKind) tmem.PoolID {
	id := s.b.NewPool(vm, kind)
	if kind == tmem.Persistent && !s.degraded.Load() {
		if err := s.log.NewPool(id, vm, kind); err != nil {
			s.degrade()
		}
	}
	return id
}

func (s *Store) DestroyPool(id tmem.PoolID) error {
	err := s.b.DestroyPool(id)
	if lerr := s.log.DropPool(id); lerr != nil {
		s.degrade()
	}
	return err
}

func (s *Store) Put(key tmem.Key, data []byte) tmem.Status {
	st := s.b.Put(key, data)
	if st != tmem.STmem || !s.log.HasPool(key.Pool) {
		return st
	}
	if s.degraded.Load() {
		// Durability is suspended: refuse the persistent put rather than
		// acknowledge a page a crash would lose.
		s.b.FlushPage(key)
		return tmem.ETmem
	}
	if err := s.log.Put(key, data); err != nil {
		s.degrade()
		s.b.FlushPage(key)
		return tmem.ETmem
	}
	return st
}

func (s *Store) Get(key tmem.Key, dst []byte) tmem.Status {
	st := s.b.Get(key, dst)
	if st == tmem.STmem || !s.log.HasPool(key.Pool) {
		return st
	}
	// Backend miss on a journaled pool: serve from the durable mirror.
	// This only triggers for pages Recover could not re-store (shrunken
	// capacity) — in steady state backend and mirror agree.
	if s.log.Get(key, dst) {
		s.recoveryServed.Add(1)
		return tmem.STmem
	}
	return st
}

func (s *Store) FlushPage(key tmem.Key) tmem.Status {
	st := s.b.FlushPage(key)
	removed, err := s.log.FlushPage(key)
	if err != nil {
		s.degrade()
	}
	if removed && st != tmem.STmem {
		st = tmem.STmem
	}
	return st
}

func (s *Store) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status) {
	n, st := s.b.FlushObject(pool, object)
	m, err := s.log.FlushObject(pool, object)
	if err != nil {
		s.degrade()
	}
	// The mirror and backend hold (copies of) the same key set; report
	// whichever saw more in case recovery left the mirror a superset.
	if mem.Pages(m) > n {
		n = mem.Pages(m)
	}
	if m > 0 && st != tmem.STmem {
		st = tmem.STmem
	}
	return n, st
}

func (s *Store) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
	s.b.PutBatch(keys, datas, sts)
	// Journal the successful persistent subset in one append. In the
	// common case that is the whole batch, journaled as passed in.
	journaled := func(i int) bool { return sts[i] == tmem.STmem && s.log.HasPool(keys[i].Pool) }
	n := 0
	for i := range keys {
		if journaled(i) {
			n++
		}
	}
	if n == 0 {
		return
	}
	jKeys, jDatas := keys, datas
	if n < len(keys) {
		jKeys, jDatas = make([]tmem.Key, 0, n), make([][]byte, 0, n)
		for i, key := range keys {
			if journaled(i) {
				jKeys = append(jKeys, key)
				jDatas = append(jDatas, datas[i])
			}
		}
	}
	if s.degraded.Load() || s.log.PutBatch(jKeys, jDatas) != nil {
		s.degrade()
		for i, key := range keys {
			if journaled(i) {
				s.b.FlushPage(key)
				sts[i] = tmem.ETmem
			}
		}
	}
}

func (s *Store) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	s.b.GetBatch(keys, dsts, sts)
	for i, key := range keys {
		if sts[i] == tmem.STmem || !s.log.HasPool(key.Pool) {
			continue
		}
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		if s.log.Get(key, dst) {
			s.recoveryServed.Add(1)
			sts[i] = tmem.STmem
		}
	}
}
