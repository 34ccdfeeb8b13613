package ttcp

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func newStack(t *testing.T) (*sim.Engine, *kern.Kernel, *tcp.Stack) {
	t.Helper()
	eng := sim.NewEngine(5)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 2)
	k := kern.New(kern.Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
	})
	t.Cleanup(k.Shutdown)
	st := tcp.New(k, tcp.DefaultConfig())
	k.StartTicks()
	return eng, k, st
}

func TestLaunchTXTransactsForever(t *testing.T) {
	eng, _, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	p := Launch(st, sock, client, Config{Name: "tx0", Dir: TX, Size: 8192, StartCPU: 0})
	eng.Run(300_000_000)
	if p.Transactions == 0 {
		t.Fatal("no transactions completed")
	}
	// Write returns when data is queued, so up to a window of bytes may
	// still be in flight at the end of the run.
	if got := client.BytesReceived; got+128<<10 < p.Transactions*8192 {
		t.Fatalf("client received %d bytes for %d transactions", got, p.Transactions)
	}
	// The loop must still be running (steady state, not terminated).
	if p.Task.State() == kern.TaskDead {
		t.Fatal("ttcp process exited")
	}
}

func TestLaunchRXConsumesSource(t *testing.T) {
	eng, _, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	p := Launch(st, sock, client, Config{Name: "rx0", Dir: RX, Size: 4096, StartCPU: 1})
	eng.At(0, func() { client.StartSource() })
	eng.Run(300_000_000)
	if p.Transactions == 0 {
		t.Fatal("no read transactions completed")
	}
	if sock.AppBytesIn() != p.Transactions*4096 {
		t.Fatalf("socket bytes %d vs %d transactions", sock.AppBytesIn(), p.Transactions)
	}
}

func TestLaunchHonoursAffinity(t *testing.T) {
	eng, k, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	p := Launch(st, sock, client, Config{Name: "pin1", Dir: TX, Size: 16384, StartCPU: 0, Affinity: 1 << 1})
	eng.Run(200_000_000)
	if p.Task.LastCPU() != 1 {
		t.Fatalf("pinned process last ran on CPU %d, want 1", p.Task.LastCPU())
	}
	if p.Task.Affinity() != 1<<1 {
		t.Fatalf("affinity mask %x", p.Task.Affinity())
	}
	_ = k
}

func TestDirectionString(t *testing.T) {
	if TX.String() != "TX" || RX.String() != "RX" {
		t.Fatal("direction names wrong")
	}
}

func TestLaunchRejectsBadSize(t *testing.T) {
	_, _, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	defer func() {
		if recover() == nil {
			t.Error("zero size accepted")
		}
	}()
	Launch(st, sock, client, Config{Name: "bad", Dir: TX, Size: 0})
}

// The transaction buffer is reused, so after warmup it serves from cache
// (the §6.1 setup): transmit-copy source reads mostly hit.
func TestUserBufferServedFromCache(t *testing.T) {
	eng, k, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	Launch(st, sock, client, Config{Name: "warm", Dir: TX, Size: 16384, StartCPU: 0, Affinity: 1})
	eng.Run(500_000_000)
	copySym := k.Tab.Lookup("__copy_from_user_ll")
	misses := k.Ctr.SymbolTotal(copySym, perf.LLCMisses)
	instr := k.Ctr.SymbolTotal(copySym, perf.Instructions)
	if instr == 0 {
		t.Fatal("copy never ran")
	}
	// With the transmit-DMA invalidation, destination skb lines miss; the
	// warm user buffer bounds MPI well below the all-cold 2 misses per
	// 64B (source+dest) = 0.031/instr.
	if mpi := float64(misses) / float64(instr); mpi > 0.022 {
		t.Fatalf("copy MPI %.4f — user buffer not cache-resident", mpi)
	}
}

func TestThinkTimeLowersUtilization(t *testing.T) {
	eng, k, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	Launch(st, sock, client, Config{
		Name: "thinker", Dir: TX, Size: 8192, StartCPU: 0,
		ThinkCycles: 2_000_000, // 1 ms of thinking per 8 KB
	})
	eng.Run(500_000_000)
	idle := k.CPUs[0].IdleCycles() + k.CPUs[1].IdleCycles()
	if idle < 200_000_000 {
		t.Fatalf("idle = %d cycles; think time not leaving the CPU idle", idle)
	}
}

func TestLatencyRecording(t *testing.T) {
	eng, _, st := newStack(t)
	nic := st.AddNIC(0x19)
	sock, client := st.NewConn(0, nic)
	p := Launch(st, sock, client, Config{Name: "lat", Dir: TX, Size: 16384, StartCPU: 0})
	p.RecordLatency = true
	eng.Run(400_000_000)
	ls := p.Latency()
	if ls.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if !(ls.Min <= ls.Median && ls.Median <= ls.P90 && ls.P90 <= ls.P99 && ls.P99 <= ls.Max) {
		t.Fatalf("percentiles unordered: %+v", ls)
	}
	if ls.Min == 0 {
		t.Fatal("zero-cycle transaction recorded")
	}
	// Without recording, stats are empty.
	p2 := Launch(st, sock, client, Config{Name: "nolat", Dir: TX, Size: 128, StartCPU: 1})
	_ = p2
	if got := (&Proc{}).Latency(); got.Count != 0 {
		t.Fatal("empty proc has latencies")
	}
}
