package tcp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
)

// skbHeaderBytes is the simulated sk_buff header footprint and
// skbDataBytes the attached buffer (one MSS plus headroom fits).
const (
	skbHeaderBytes = 256
	skbDataBytes   = 2048
	// skbTruesize is what socket buffer accounting charges per skb —
	// header plus the full data allocation, not just payload. This is
	// why a 64 KB write against a 64 KB send buffer still blocks: 45
	// MSS segments charge ~104 KB of truesize.
	skbTruesize = skbHeaderBytes + skbDataBytes
)

// poolBatch is the slab array-cache batch size: per-CPU caches refill and
// drain this many objects at a time from the shared list.
const poolBatch = 32

// SKB is a socket buffer: a header region plus a data buffer, both at
// simulated addresses. TCP payload occupies [DataAddr, DataAddr+Len).
// SKBs live as values in the pool's slab array (fixed size, so *SKB
// pointers are stable) and circulate by int32 index.
type SKB struct {
	idx      int32
	HeadAddr mem.Addr
	DataAddr mem.Addr

	// Protocol state while queued.
	Seq      uint64
	Len      int
	Consumed int
}

// Remaining reports unconsumed payload bytes.
func (s *SKB) Remaining() int { return s.Len - s.Consumed }

// Clone is a transmit clone: its own header, sharing the original's data
// buffer (skb_clone semantics — the original stays on the retransmit
// queue until acknowledged, the clone rides down to the device). Clones
// live in a value slab like SKBs.
type Clone struct {
	idx      int32
	HeadAddr mem.Addr
	Data     mem.Addr
	Len      int
}

// Pool is the global skb allocator modelled on the 2.4 slab: per-CPU
// array caches over shared free lists. The fast path (per-CPU cache hit)
// is lock-free and touches only CPU-local bookkeeping; the slow path
// moves a batch between the per-CPU cache and the shared list under the
// slab spinlock.
//
// This structure is what couples buffer management to affinity: when a
// connection's allocations and frees happen on one processor (full
// affinity), buffers cycle warm through that CPU's cache; when softirq
// frees on one processor feed process-context allocations on another (no
// affinity), every batch refill imports lines that are dirty in the
// remote cache — the Buf Mgmt LLC misses of the paper's Table 3.
type Pool struct {
	st   *Stack
	lock *kern.SpinLock

	// sharedAddr covers the shared free-list bookkeeping lines;
	// cpuAddr[i] the per-CPU array-cache bookkeeping line.
	sharedAddr mem.Addr
	cpuAddr    []mem.Addr

	// skbs and clones are value slabs sized once at construction (their
	// element pointers must stay stable); objects circulate by index.
	skbs      []SKB
	freeSKBs  []int32 // shared list
	clones    []Clone
	freeClone []int32 // shared list

	cpuSKBs   [][]int32 // per-CPU array caches
	cpuClones [][]int32

	// Stats.
	SKBAllocs, SKBFrees     uint64
	CloneAllocs, CloneFrees uint64
	Refills, Drains         uint64
}

func newPool(st *Stack, nSKB, nClone int) *Pool {
	if nSKB <= 0 || nClone <= 0 {
		panic("tcp: pool sizes must be positive")
	}
	k := st.K
	p := &Pool{
		st:         st,
		lock:       k.NewSpinLock("skb_pool"),
		sharedAddr: k.Space.Alloc(2*mem.LineSize, "skb_pool_lists"),
	}
	ncpu := len(k.CPUs)
	for i := 0; i < ncpu; i++ {
		p.cpuAddr = append(p.cpuAddr, k.Space.Alloc(mem.LineSize, fmt.Sprintf("skb_cpucache%d", i)))
	}
	p.cpuSKBs = make([][]int32, ncpu)
	p.cpuClones = make([][]int32, ncpu)

	headers := k.Space.AllocPage(nSKB*skbHeaderBytes, "skb_headers")
	data := k.Space.AllocPage(nSKB*skbDataBytes, "skb_data")
	p.skbs = make([]SKB, nSKB)
	p.freeSKBs = make([]int32, nSKB)
	for i := 0; i < nSKB; i++ {
		p.skbs[i] = SKB{
			idx:      int32(i),
			HeadAddr: headers + mem.Addr(i*skbHeaderBytes),
			DataAddr: data + mem.Addr(i*skbDataBytes),
		}
		p.freeSKBs[i] = int32(i)
	}
	cloneHeaders := k.Space.AllocPage(nClone*skbHeaderBytes, "clone_headers")
	p.clones = make([]Clone, nClone)
	p.freeClone = make([]int32, nClone)
	for i := 0; i < nClone; i++ {
		p.clones[i] = Clone{
			idx:      int32(i),
			HeadAddr: cloneHeaders + mem.Addr(i*skbHeaderBytes),
		}
		p.freeClone[i] = int32(i)
	}
	return p
}

// FreeSKBCount reports available full skbs across shared and per-CPU
// lists (tests and invariants).
func (p *Pool) FreeSKBCount() int {
	n := len(p.freeSKBs)
	for _, c := range p.cpuSKBs {
		n += len(c)
	}
	return n
}

// FreeCloneCount reports available clone headers across all lists.
func (p *Pool) FreeCloneCount() int {
	n := len(p.freeClone)
	for _, c := range p.cpuClones {
		n += len(c)
	}
	return n
}

// grabForRing takes an skb without cost accounting — used only at machine
// setup to prime NIC rings.
func (p *Pool) grabForRing() *SKB {
	if len(p.freeSKBs) == 0 {
		panic("tcp: pool exhausted during ring priming")
	}
	i := p.freeSKBs[len(p.freeSKBs)-1]
	p.freeSKBs = p.freeSKBs[:len(p.freeSKBs)-1]
	return &p.skbs[i]
}

// popCPU pops from a per-CPU cache, refilling a batch from the shared
// list (under the slab lock) when empty. Returns the object index.
func (p *Pool) popCPU(env *kern.Env, caches [][]int32, shared *[]int32, what string) int32 {
	// Loop, re-reading the processor id each pass: the unlock at the end
	// of a refill is a preemption point, where a bottom half may drain
	// the cache we just filled or the scheduler may migrate the task.
	id := env.CPU().ID()
	for len(caches[id]) == 0 {
		p.lock.Lock(env)
		if len(*shared) < poolBatch {
			panic(fmt.Sprintf("tcp: %s pool exhausted", what))
		}
		// The shared list cycles FIFO: a refill takes the oldest objects,
		// modelling the real allocator's working set (far larger than the
		// LLC), so recycled buffers arrive cache-cold in every affinity
		// mode; affinity governs the *coherence* component on top.
		caches[id] = append(caches[id], (*shared)[:poolBatch]...)
		*shared = (*shared)[poolBatch:]
		p.Refills++
		// Batch refill touches the shared list bookkeeping.
		env.Run(p.st.p.allocSkb, func(x *cpu.Exec) {
			x.Instr(160, 0.18, 0.012).
				Load(p.sharedAddr, 64).Store(p.sharedAddr, 32).
				Store(p.cpuAddr[id], 32)
		})
		p.lock.Unlock(env)
		id = env.CPU().ID()
	}
	c := caches[id]
	idx := c[len(c)-1]
	caches[id] = c[:len(c)-1]
	return idx
}

// pushCPU pushes to a per-CPU cache, draining a batch to the shared list
// when the cache overfills.
func (p *Pool) pushCPU(env *kern.Env, caches [][]int32, shared *[]int32, idx int32) {
	id := env.CPU().ID()
	caches[id] = append(caches[id], idx)
	if len(caches[id]) > 2*poolBatch {
		p.lock.Lock(env)
		// Re-check under the lock: a bottom half at the Lock boundary may
		// have drained this cache already.
		if n := len(caches[id]); n > poolBatch {
			*shared = append(*shared, caches[id][n-poolBatch:]...)
			caches[id] = caches[id][:n-poolBatch]
			p.Drains++
			env.Run(p.st.p.kfreeSkb, func(x *cpu.Exec) {
				x.Instr(120, 0.18, 0.012).
					Load(p.sharedAddr, 64).Store(p.sharedAddr, 32).
					Store(p.cpuAddr[id], 32)
			})
		}
		p.lock.Unlock(env)
	}
}

// AllocSKB takes a full skb (alloc_skb): per-CPU fast path, batch refill
// slow path, header initialization.
func (p *Pool) AllocSKB(env *kern.Env) *SKB {
	idx := p.popCPU(env, p.cpuSKBs, &p.freeSKBs, "skb")
	skb := &p.skbs[idx]
	p.SKBAllocs++
	id := env.CPU().ID()
	env.Run(p.st.p.allocSkb, func(x *cpu.Exec) {
		x.Instr(240, 0.17, 0.012).
			Store(p.cpuAddr[id], 16).
			Store(skb.HeadAddr, skbHeaderBytes)
	})
	skb.Seq, skb.Len, skb.Consumed = 0, 0, 0
	return skb
}

// FreeSKB returns a full skb (kfree_skb).
func (p *Pool) FreeSKB(env *kern.Env, s *SKB) {
	p.SKBFrees++
	id := env.CPU().ID()
	env.Run(p.st.p.kfreeSkb, func(x *cpu.Exec) {
		x.Instr(170, 0.17, 0.012).
			Store(p.cpuAddr[id], 16).
			Load(s.HeadAddr, 192)
	})
	p.pushCPU(env, p.cpuSKBs, &p.freeSKBs, s.idx)
}

// AllocClone takes a clone header (skb_clone): the header is copied from
// the original; data is shared.
func (p *Pool) AllocClone(env *kern.Env, orig *SKB) *Clone {
	idx := p.popCPU(env, p.cpuClones, &p.freeClone, "clone")
	c := &p.clones[idx]
	p.CloneAllocs++
	id := env.CPU().ID()
	env.Run(p.st.p.skbClone, func(x *cpu.Exec) {
		x.Instr(200, 0.15, 0.012).
			Store(p.cpuAddr[id], 16).
			Load(orig.HeadAddr, skbHeaderBytes).
			Store(c.HeadAddr, skbHeaderBytes)
	})
	c.Data = orig.DataAddr
	c.Len = orig.Len
	return c
}

// AllocAckSkb takes a header-only skb for a pure ACK (tcp_send_ack
// allocates a small skb that the device completion frees).
func (p *Pool) AllocAckSkb(env *kern.Env) *Clone {
	idx := p.popCPU(env, p.cpuClones, &p.freeClone, "clone")
	c := &p.clones[idx]
	p.CloneAllocs++
	id := env.CPU().ID()
	env.Run(p.st.p.allocSkb, func(x *cpu.Exec) {
		x.Instr(220, 0.17, 0.012).
			Store(p.cpuAddr[id], 16).
			Store(c.HeadAddr, skbHeaderBytes)
	})
	c.Data = 0
	c.Len = 0
	return c
}

// FreeClone returns a clone header.
func (p *Pool) FreeClone(env *kern.Env, c *Clone) {
	p.CloneFrees++
	id := env.CPU().ID()
	env.Run(p.st.p.kfreeSkb, func(x *cpu.Exec) {
		x.Instr(140, 0.17, 0.012).
			Store(p.cpuAddr[id], 16).
			Load(c.HeadAddr, mem.LineSize)
	})
	p.pushCPU(env, p.cpuClones, &p.freeClone, c.idx)
}

// check validates pool invariants; tests call it.
func (p *Pool) check() error {
	if p.FreeSKBCount() > len(p.skbs) || p.FreeCloneCount() > len(p.clones) {
		return fmt.Errorf("tcp: pool free lists overflow backing arrays")
	}
	seen := map[int32]bool{}
	lists := append([][]int32{p.freeSKBs}, p.cpuSKBs...)
	for _, list := range lists {
		for _, i := range list {
			if seen[i] {
				return fmt.Errorf("tcp: skb %d double-freed", i)
			}
			seen[i] = true
		}
	}
	return nil
}
