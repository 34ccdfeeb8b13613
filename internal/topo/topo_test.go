package topo

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apic"
)

func TestVectorAllocatorIssuesPaperVectorsFirst(t *testing.T) {
	a := NewVectorAllocator()
	for i, want := range PaperVectors {
		got, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("vector %d = %#x, want the paper's %#x", i, int(got), int(want))
		}
	}
	// The ninth vector continues past the paper's range.
	v, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x28 {
		t.Errorf("ninth vector = %#x, want 0x28", int(v))
	}
}

func TestVectorAllocatorSkipsReservedAndExhausts(t *testing.T) {
	a := NewVectorAllocator()
	seen := make(map[apic.Vector]bool)
	for i := 0; i < NumAllocatableVectors(); i++ {
		v, err := a.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[v] {
			t.Fatalf("vector %#x issued twice", int(v))
		}
		seen[v] = true
		if v == 0xef || v == 0xfd {
			t.Fatalf("kernel-reserved vector %#x issued", int(v))
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("no error after exhausting the vector space")
	}
}

func TestVectorAllocatorReserve(t *testing.T) {
	a := NewVectorAllocator()
	if err := a.Reserve(0x19); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(0x19); err == nil {
		t.Error("double Reserve accepted")
	}
	if err := a.Reserve(0xef); err == nil {
		t.Error("kernel-reserved vector accepted")
	}
	// The allocator must skip the reserved vector.
	v, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if v == 0x19 {
		t.Error("Alloc reissued a reserved vector")
	}
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		bad  bool
	}{
		{"paper", Paper(), false},
		{"big", Uniform(32, 64, 2), false},
		{"no cpus", Uniform(0, 8, 1), true},
		{"too many cpus", Uniform(33, 8, 1), true},
		{"no nics", Topology{NumCPUs: 2}, true},
		{"negative conns", Topology{NumCPUs: 2, NICs: []NICShape{{}}, Conns: -1}, true},
		{"too many queues", Uniform(2, 1, NumAllocatableVectors()+1), true},
		{"negative queues", Uniform(2, 8, -2), true},
		{"zero queues", Uniform(2, 8, 0), false},
		{"queue sum overflow", Uniform(2, 8, 1<<61), true},
		{"most conns", Topology{NumCPUs: 2, NICs: []NICShape{{}}, Conns: maxConns}, false},
		{"too many conns", Topology{NumCPUs: 2, NICs: []NICShape{{}}, Conns: maxConns + 1}, true},
		{"domains ok", Topology{NumCPUs: 4, NICs: []NICShape{{}}, Domains: [][]int{{0, 1}, {2, 3}}}, false},
		{"domain gap", Topology{NumCPUs: 4, NICs: []NICShape{{}}, Domains: [][]int{{0, 1}, {3}}}, true},
		{"domain dup", Topology{NumCPUs: 4, NICs: []NICShape{{}}, Domains: [][]int{{0, 1}, {1, 2, 3}}}, true},
		{"domain range", Topology{NumCPUs: 2, NICs: []NICShape{{}}, Domains: [][]int{{0, 1, 2}}}, true},
		{"empty domain", Topology{NumCPUs: 2, NICs: []NICShape{{}}, Domains: [][]int{{0, 1}, {}}}, true},
	}
	for _, c := range cases {
		err := c.topo.Validate()
		if c.bad && err == nil {
			t.Errorf("%s: invalid topology accepted", c.name)
		}
		if !c.bad && err != nil {
			t.Errorf("%s: valid topology rejected: %v", c.name, err)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	topo := Uniform(4, 2, 3)
	topo.Conns = 5
	topo.Domains = [][]int{{0, 1}, {2, 3}}
	if got := topo.TotalQueues(); got != 6 {
		t.Errorf("TotalQueues = %d, want 6", got)
	}
	if got := topo.NumConns(); got != 5 {
		t.Errorf("NumConns = %d, want 5", got)
	}
	if got := topo.NICOf(3); got != 1 {
		t.Errorf("NICOf(3) = %d, want 1", got)
	}
	if got := topo.DomainOf(2); got != 1 {
		t.Errorf("DomainOf(2) = %d, want 1", got)
	}
	if got := topo.CPUMask(); got != 0xf {
		t.Errorf("CPUMask = %#x, want 0xf", got)
	}
	if got := Paper().NumConns(); got != 8 {
		t.Errorf("paper conns = %d, want 8", got)
	}
}

// The paper's Figure 2 placement: under irq/full policies the eight NICs
// split 4/4 across the two CPUs, and full additionally pins process i to
// its NIC's CPU.
func TestPaperPolicies(t *testing.T) {
	paper := Paper()
	plan := func(pol PlacementPolicy) *Plan {
		p, err := pol.Place(paper)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s plan invalid: %v", pol.Name(), err)
		}
		return p
	}

	for i, v := range plan(None{}).QueueVectors {
		if v[0] != PaperVectors[i] {
			t.Errorf("NIC %d vector %#x, want %#x", i, int(v[0]), int(PaperVectors[i]))
		}
	}

	irq := plan(IRQ{})
	for n := 0; n < 8; n++ {
		want := uint32(1)
		if n >= 4 {
			want = 2
		}
		if got := irq.IRQMasks[n][0]; got != want {
			t.Errorf("irq: NIC %d mask %#x, want %#x", n, got, want)
		}
		if irq.ProcMasks[n] != 0 {
			t.Errorf("irq: process %d pinned (%#x), want free", n, irq.ProcMasks[n])
		}
	}

	proc := plan(Process{})
	for i := 0; i < 8; i++ {
		want := uint32(1)
		if i >= 4 {
			want = 2
		}
		if got := proc.ProcMasks[i]; got != want {
			t.Errorf("process: conn %d mask %#x, want %#x", i, got, want)
		}
		if proc.IRQMasks[i][0] != 0 {
			t.Errorf("process: NIC %d vector pinned, want default", i)
		}
	}

	full := plan(Full{})
	for i := 0; i < 8; i++ {
		if full.ProcMasks[i] != full.IRQMasks[i][0] {
			t.Errorf("full: conn %d proc mask %#x != its vector mask %#x",
				i, full.ProcMasks[i], full.IRQMasks[i][0])
		}
	}

	part := plan(Partition{})
	for i := 0; i < 8; i++ {
		if part.ProcMasks[i] != 2 {
			t.Errorf("partition: conn %d mask %#x, want 0x2 (off CPU0)", i, part.ProcMasks[i])
		}
		if part.IRQMasks[i][0] != 0 {
			t.Errorf("partition: NIC %d vector pinned, want CPU0 default", i)
		}
	}

	rot := plan(Rotate{})
	if !rot.RotateIRQs {
		t.Error("rotate: RotateIRQs not set")
	}
}

func TestPartitionUsesDomains(t *testing.T) {
	topo := Uniform(4, 4, 1)
	topo.Domains = [][]int{{0, 1}, {2, 3}}
	p, err := Partition{}.Place(topo)
	if err != nil {
		t.Fatal(err)
	}
	for n := range p.IRQMasks {
		if p.IRQMasks[n][0] != 0x3 {
			t.Errorf("NIC %d IRQ mask %#x, want domain 0 (0x3)", n, p.IRQMasks[n][0])
		}
	}
	for i, m := range p.ProcMasks {
		if m != 0xc {
			t.Errorf("conn %d proc mask %#x, want domain 1+ (0xc)", i, m)
		}
	}
}

func TestPartitionSingleCPUDegenerate(t *testing.T) {
	p, err := Partition{}.Place(Uniform(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.ProcMasks {
		if m != 0 {
			t.Errorf("1-CPU partition pinned a process (%#x)", m)
		}
	}
}

func TestRSSPlanSpreadsQueuesAndFlows(t *testing.T) {
	topo := Uniform(2, 2, 4)
	topo.Conns = 8
	p, err := RSS{}.Place(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Queue vectors alternate CPUs.
	g := 0
	for n := range p.IRQMasks {
		for q := range p.IRQMasks[n] {
			want := uint32(1) << uint(g%2)
			if p.IRQMasks[n][q] != want {
				t.Errorf("nic%d q%d mask %#x, want %#x", n, q, p.IRQMasks[n][q], want)
			}
			g++
		}
	}
	// The four flows of each NIC land on four distinct queues.
	for n := 0; n < 2; n++ {
		used := map[int]bool{}
		for i := n; i < 8; i += 2 {
			q := p.FlowQueues[i]
			if q < 0 || used[q] {
				t.Errorf("nic%d flow %d queue %d reused or unsteered", n, i, q)
			}
			used[q] = true
		}
	}
	// RSS pins no processes.
	for i, m := range p.ProcMasks {
		if m != 0 {
			t.Errorf("conn %d pinned (%#x) under RSS", i, m)
		}
	}
}

func TestMultiQueueFullPinsToQueueCPU(t *testing.T) {
	topo := Uniform(4, 2, 2)
	topo.Conns = 8
	p, err := Full{}.Place(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n, q := p.NICOf(i), p.FlowQueues[i]
		if q < 0 {
			t.Fatalf("conn %d unsteered under multi-queue full affinity", i)
		}
		if p.ProcMasks[i] != p.IRQMasks[n][q] {
			t.Errorf("conn %d proc mask %#x != queue mask %#x", i, p.ProcMasks[i], p.IRQMasks[n][q])
		}
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Plan {
		p, err := Full{}.Place(Paper())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := fresh()
	p.IRQMasks[0][0] = 1 << 5 // CPU outside the 2-CPU machine
	if err := p.Validate(); err == nil {
		t.Error("out-of-range IRQ mask accepted")
	}
	p = fresh()
	p.QueueVectors[1][0] = p.QueueVectors[0][0]
	if err := p.Validate(); err == nil {
		t.Error("duplicate vector accepted")
	}
	p = fresh()
	p.QueueVectors[0][0] = 0xef
	if err := p.Validate(); err == nil {
		t.Error("kernel-reserved vector accepted")
	}
	p = fresh()
	p.StartCPUs[0] = 7
	if err := p.Validate(); err == nil {
		t.Error("out-of-range start CPU accepted")
	}
	p = fresh()
	p.FlowQueues[0] = 3
	if err := p.Validate(); err == nil {
		t.Error("out-of-range flow queue accepted")
	}
	p = fresh()
	p.ProcMasks = p.ProcMasks[:4]
	if err := p.Validate(); err == nil {
		t.Error("short ProcMasks accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, pol := range Policies() {
		got, err := PolicyByName(pol.Name())
		if err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
		if got.Name() != pol.Name() {
			t.Errorf("PolicyByName(%q).Name() = %q", pol.Name(), got.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPlanString(t *testing.T) {
	p, err := RSS{}.Place(Uniform(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"rss", "2P", "2 NICs", "8 queues"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// FlowDirector is RSS's static placement plus the dynamic-steering
// flag: every static field matches the RSS plan exactly (the reordering
// comparison is apples-to-apples), only FlowDirector differs.
func TestFlowDirectorMatchesRSSStatically(t *testing.T) {
	topo := Uniform(2, 2, 4)
	topo.Conns = 8
	rss, err := RSS{}.Place(topo)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := FlowDirector{}.Place(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Validate(); err != nil {
		t.Fatal(err)
	}
	if !fd.FlowDirector {
		t.Error("flowdirector plan does not set FlowDirector")
	}
	if rss.FlowDirector {
		t.Error("rss plan sets FlowDirector")
	}
	if fd.Policy != "flowdirector" {
		t.Errorf("policy name %q", fd.Policy)
	}
	fd.Policy, fd.FlowDirector = rss.Policy, rss.FlowDirector
	if !reflect.DeepEqual(rss, fd) {
		t.Errorf("flowdirector static placement diverges from rss:\nrss: %+v\nfd:  %+v", rss, fd)
	}
}
