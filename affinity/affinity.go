// Package affinity is the public interface to the processor-affinity
// characterization study: a full-system simulation of a two-processor
// Pentium 4 Xeon server with eight gigabit NICs running a Linux-2.4-class
// TCP/IP stack, reproducing Foong et al., "Architectural Characterization
// of Processor Affinity in Network Processing" (ISPASS 2005).
//
// The package lets you run the paper's experiment — a ttcp bulk-transfer
// workload under one of four affinity modes — and obtain the paper's
// measurement artifacts:
//
//   - throughput, CPU utilization and GHz/Gbps cost (Figures 3-4),
//   - the functional-bin characterization (Table 1),
//   - first-order performance-impact indicators (Figure 5),
//   - Amdahl-decomposed per-bin improvement analysis (Table 3),
//   - per-CPU machine-clear symbol profiles (Table 4),
//   - Spearman rank correlations (Table 5).
//
// Quick start:
//
//	base := affinity.Run(affinity.DefaultConfig(affinity.ModeNone, affinity.TX, 65536))
//	full := affinity.Run(affinity.DefaultConfig(affinity.ModeFull, affinity.TX, 65536))
//	fmt.Println(base, full)
//	fmt.Print(affinity.Compare(base, full).Format())
//
// Everything is deterministic: identical Config (including Seed) yields
// identical results.
package affinity

import (
	"io"

	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/perf"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// Mode is one of the paper's four affinity modes.
type Mode = core.Mode

// The four affinity modes of §4.
const (
	// ModeNone leaves interrupts on CPU0 and processes to the scheduler.
	ModeNone = core.ModeNone
	// ModeProc pins the eight ttcp processes 4/4 across the CPUs.
	ModeProc = core.ModeProc
	// ModeIRQ pins the eight NIC interrupt lines 4/4 across the CPUs.
	ModeIRQ = core.ModeIRQ
	// ModeFull pins each process to the CPU serving its NIC's interrupts.
	ModeFull = core.ModeFull
	// ModePartition is the AsyMOS/ETA-style hard partition (§7 related
	// work): interrupts on CPU0, applications elsewhere. An extension
	// beyond the paper's four measured modes.
	ModePartition = core.ModePartition
)

// Direction selects the bulk-transfer direction.
type Direction = ttcp.Direction

// Transfer directions.
const (
	// TX: the system under test transmits.
	TX = ttcp.TX
	// RX: the system under test receives.
	RX = ttcp.RX
)

// Config describes one experiment run; see core.Config for every knob.
type Config = core.Config

// Result is one measured steady-state window.
type Result = core.Result

// Machine is a fully assembled simulated SUT, for callers that want to
// drive warmup and multiple measurement windows themselves.
type Machine = core.Machine

// Comparison is the paper's §6.3 comparative characterization.
type Comparison = core.Comparison

// Sweep is a modes × sizes measurement grid (Figures 3-4).
type Sweep = core.Sweep

// BinTable is the paper's Table 1 characterization.
type BinTable = prof.BinTable

// EventShare is one Figure 5 row.
type EventShare = prof.EventShare

// Modes lists the four affinity modes in the paper's order.
func Modes() []Mode { return core.Modes() }

// AllModes additionally includes the ModePartition extension.
func AllModes() []Mode { return core.AllModes() }

// Sizes is the paper's transaction-size sweep.
func Sizes() []int { return append([]int(nil), core.Sizes...) }

// DefaultConfig returns the paper's machine at one operating point: two
// 2 GHz processors, eight NICs/connections/processes, calibrated model
// parameters, and a steady-state measurement window.
func DefaultConfig(mode Mode, dir Direction, size int) Config {
	return core.DefaultConfig(mode, dir, size)
}

// Topology describes an arbitrary machine shape: processors, optional
// NUMA-ish domains, NICs with one or more receive queues, and the
// connection population. Set Config.Topology to run the experiment on a
// shape other than the paper's 2P × 8NIC box.
type Topology = topo.Topology

// NICShape describes one adapter of a Topology.
type NICShape = topo.NICShape

// Plan is an explicit placement of work onto a Topology: irq→CPU masks,
// queue→vector assignment, process→CPU masks and flow→queue steering.
type Plan = topo.Plan

// PlacementPolicy turns a Topology into a Plan. Built-ins cover the
// paper's modes plus partition, rotate and RSS; custom implementations
// can place work any other way. Set Config.Policy to override the policy
// implied by Config.Mode.
type PlacementPolicy = topo.PlacementPolicy

// Uniform builds a Topology of identical NICs: cpus processors and nics
// adapters with queues receive queues each. Uniform(2, 8, 1) is the
// paper's machine.
func Uniform(cpus, nics, queues int) Topology { return topo.Uniform(cpus, nics, queues) }

// PaperTopology returns the paper's SUT shape: 2 CPUs × 8 single-queue
// NICs, one connection and one process per NIC.
func PaperTopology() Topology { return topo.Paper() }

// PolicyForMode maps an affinity mode to its placement policy.
func PolicyForMode(m Mode) PlacementPolicy { return core.PolicyForMode(m) }

// ParseMode resolves an affinity mode from its common spellings (none,
// proc, irq, full, partition and aliases), case-insensitively.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// ParseDirection resolves a transfer direction from its common spellings
// (tx/send/transmit, rx/recv/receive), case-insensitively.
func ParseDirection(s string) (Direction, error) { return core.ParseDirection(s) }

// ParsePolicy resolves a built-in placement policy from its name or a
// common alias (proc, int, part, ...), case-insensitively.
func ParsePolicy(s string) (PlacementPolicy, error) { return core.ParsePolicy(s) }

// PolicyByName resolves a built-in placement policy from its name:
// none, process, irq, full, partition, rotate or rss.
func PolicyByName(name string) (PlacementPolicy, error) { return topo.PolicyByName(name) }

// Policies lists every built-in placement policy.
func Policies() []PlacementPolicy { return topo.Policies() }

// PlanFor computes the placement plan a config implies without building
// the machine — validate or inspect a shape before paying for a run.
func PlanFor(cfg Config) (*Plan, error) { return core.PlanFor(cfg) }

// Run builds the machine, warms it up, measures one window and returns
// the result.
func Run(cfg Config) *Result { return core.Run(cfg) }

// NewMachine assembles a machine without running it; use Machine.Measure
// for custom windows and Machine.Shutdown when done.
func NewMachine(cfg Config) *Machine { return core.NewMachine(cfg) }

// Sampler is the Oprofile-style statistical profiler; attach one with
// Machine.NewSampler to sample where the processors spend their time.
type Sampler = core.Sampler

// Runner fans independent runs out across a bounded worker pool and
// reassembles results in deterministic input order. Every simulation is
// single-threaded and seeded, so parallel results are bit-identical to
// sequential ones; parallelism changes wall-clock time only.
type Runner = core.Runner

// WorkersEnv is the environment variable that overrides the default
// worker count (a positive integer).
const WorkersEnv = core.WorkersEnv

// NewRunner returns a runner bounded to the given number of workers:
// 0 selects GOMAXPROCS (overridable via WorkersEnv), 1 forces serial
// execution — the opt-out for callers that need sequential runs.
func NewRunner(workers int) *Runner { return core.NewRunner(workers) }

// RunAll runs every configuration concurrently on the default worker
// pool and returns the results in input order, bit-identical to calling
// Run on each configuration sequentially.
func RunAll(cfgs []Config) []*Result { return core.RunAll(cfgs) }

// RunSweep measures every (mode, size) cell for one direction. Cells run
// concurrently on the default worker pool; use NewRunner(1).RunSweep for
// serial execution. Results are bit-identical either way.
func RunSweep(base Config, dir Direction, sizes []int, modes []Mode) Sweep {
	return core.RunSweep(base, dir, sizes, modes)
}

// Aggregate summarizes one configuration across several seeds.
type Aggregate = core.Aggregate

// RunSeeds measures cfg under n consecutive seeds and aggregates the
// headline metrics (mean ± stdev), playing the role of run-to-run
// variance in a deterministic simulator. Seeds run concurrently on the
// default worker pool; use NewRunner(1).RunSeeds for serial execution.
func RunSeeds(cfg Config, n int) Aggregate { return core.RunSeeds(cfg, n) }

// Compare performs the paper's §6.3 analysis between a baseline run and
// an improved run of the same workload.
func Compare(base, improved *Result) *Comparison { return core.Compare(base, improved) }

// CSVHeader is the column list for Result.CSVRow exports.
func CSVHeader() string { return core.CSVHeader() }

// Check is one scored reproduction claim.
type Check = core.Check

// VerifyShape runs the experiment suite and scores every reproduction
// claim from EXPERIMENTS.md — the executable form of that document. Pass
// nil to use the paper's default operating points. The underlying runs
// execute concurrently on the default worker pool; see VerifyShapeWith.
func VerifyShape(cfgFor func(Mode, Direction, int) Config) []Check {
	return core.VerifyShape(cfgFor)
}

// VerifyShapeWith is VerifyShape on an explicit runner (nil = default;
// NewRunner(1) scores from strictly sequential runs).
func VerifyShapeWith(r *Runner, cfgFor func(Mode, Direction, int) Config) []Check {
	return core.VerifyShapeWith(r, cfgFor)
}

// FormatChecks renders a verification scorecard.
func FormatChecks(checks []Check) string { return core.FormatChecks(checks) }

// BaselineTable builds the Table 1 functional-bin characterization.
func BaselineTable(r *Result) BinTable { return core.BaselineTable(r) }

// Indicators builds the Figure 5 performance-impact indicator column.
func Indicators(r *Result) []EventShare { return core.Indicators(r) }

// TopClearSymbols builds the Table 4 per-CPU machine-clear profile.
func TopClearSymbols(r *Result, n int) [][]prof.SymbolCount {
	return core.TopClearSymbols(r, n)
}

// PerCPUBinTables builds one Table-1 characterization per processor —
// the per-CPU view the paper uses in §6.3.
func PerCPUBinTables(r *Result) []BinTable {
	return prof.PerCPUBinTables(r.Ctr)
}

// FormatTopSymbols renders a Table 4 style listing.
func FormatTopSymbols(rows [][]prof.SymbolCount) string {
	return prof.FormatTopSymbols(rows, perf.MachineClears)
}

// --- result cache and HTTP service ---

// Cache is the content-addressed result cache: identical Configs
// fingerprint to the same key, concurrent identical requests coalesce
// onto one simulation, and results optionally persist on disk across
// processes. See NewCache.
type Cache = cache.Cache

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats = cache.Stats

// CacheDirEnv names the environment variable consulted for the default
// on-disk store location.
const CacheDirEnv = cache.DirEnv

// DefaultCacheBytes is the default in-memory cache bound (256 MiB).
const DefaultCacheBytes = cache.DefaultMaxBytes

// NewCache builds a result cache bounded to maxBytes resident bytes
// (<=0 disables the bound). A non-empty dir adds a persistent on-disk
// journal under that directory; Close the cache when done with it.
func NewCache(maxBytes int64, dir string) *Cache { return cache.New(maxBytes, dir) }

// Fingerprint returns the canonical content hash of a configuration —
// the cache key. Two configs with equal fingerprints produce identical
// Results.
func Fingerprint(cfg Config) string { return cache.Fingerprint(cfg) }

// Cacheable reports whether a config's result can be cached; runs that
// collect per-run artifacts (timeline traces, gauge series) cannot.
func Cacheable(cfg Config) bool { return cache.Cacheable(cfg) }

// UseCache routes a runner's simulations through a cache; pass nil to
// restore direct execution. The substitution is result-transparent:
// cached results are bit-identical to fresh ones.
func UseCache(r *Runner, c *Cache) *Runner { return r.Use(c.RunFunc()) }

// Server is the simulator's HTTP face: POST /v1/run, POST /v1/sweep
// (NDJSON stream), GET /v1/verify, GET /healthz and GET /metrics, in
// front of a Cache and a Runner. See NewServer.
type Server = serve.Server

// ServerOptions configures NewServer; the zero value serves with a
// default runner, a fresh in-memory cache and sensible limits.
type ServerOptions = serve.Options

// NewServer builds the HTTP handler; mount it on any http.Server.
func NewServer(opts ServerOptions) *Server { return serve.New(opts) }

// Coordinator fronts a fleet of Servers: it accepts the same sweep
// requests as one server, shards the expanded cells across registered
// workers weighted by their capacity, retries and hedges stragglers,
// deduplicates by Fingerprint, and merges results into an NDJSON
// stream byte-identical to a single server's. See NewCoordinator.
type Coordinator = coord.Coordinator

// CoordinatorOptions configures NewCoordinator; the zero value serves
// with sensible heartbeat, retry, hedging and result-store defaults.
type CoordinatorOptions = coord.Options

// NewCoordinator builds the fleet coordinator handler; mount it on any
// http.Server and Close (or Shutdown) it when done. Construction fails
// on a negative MemoEntries or a journal directory that cannot be
// opened.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) { return coord.New(opts) }

// --- timeline tracing ---

// TraceRecorder is the structured timeline recorder: a bounded ring of
// typed records (context switches, interrupt delivery and handlers,
// IPIs, softirqs, NIC DMA/interrupts, socket block/wake, lock
// contention). Set Config.Trace to attach one to a run; it surfaces on
// Result.Trace. Recording is passive — a traced run follows the exact
// trajectory of an untraced one.
type TraceRecorder = trace.Recorder

// TraceConfig sizes a run's recorder; set it on Config.Trace.
type TraceConfig = trace.Config

// TraceRecord is one timeline entry; TraceKind is its type tag.
type TraceRecord = trace.Record

// TraceKind is the type of one timeline record.
type TraceKind = trace.Kind

// Series is the sampled gauge time series (per-CPU runqueue depth and
// utilization, achieved Mbps, interrupt rate) collected on Result.Series
// when Config.GaugeCycles is set.
type Series = core.Series

// WriteChromeTrace exports a recorder's timeline as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing: one track per CPU plus
// one per NIC. clockHz converts virtual cycles to trace time; pass the
// run's Config.CPU.ClockHz.
func WriteChromeTrace(w io.Writer, r *TraceRecorder, clockHz uint64) error {
	return trace.WriteChrome(w, r, clockHz)
}

// WriteTextTrace exports a recorder's timeline as a plain-text dump, one
// record per line.
func WriteTextTrace(w io.Writer, r *TraceRecorder, clockHz uint64) error {
	return trace.WriteText(w, r, clockHz)
}

// --- fault injection ---

// FaultSchedule is a validated list of deterministic fault events —
// link flaps, random and bursty (Gilbert-Elliott) loss, wire delay
// with jitter, NIC DMA stalls, interrupt storms — executed by the
// engine at configured virtual times. Set it on Config.Faults; a nil
// or empty schedule is the clean baseline and leaves the run
// byte-identical to one without the fault subsystem. Faulted runs
// additionally drain the machine afterwards and verify the resource
// invariants (CheckInvariants), reporting the verdict on the Result.
type FaultSchedule = fault.Schedule

// FaultEvent is one scheduled fault; FaultKind tags its type.
type FaultEvent = fault.Event

// FaultKind is the type of one fault event.
type FaultKind = fault.Kind

// The fault kinds.
const (
	FaultLoss  = fault.KindLoss
	FaultBurst = fault.KindBurst
	FaultFlap  = fault.KindFlap
	FaultDelay = fault.KindDelay
	FaultStall = fault.KindStall
	FaultStorm = fault.KindStorm
)

// ParseFaults builds a schedule from the CLI/HTTP spec syntax —
// semicolon-separated events of comma-separated key=value pairs, e.g.
// "flap,nic=0,from=1e9,until=1.5e9;loss,rate=0.01" — or, with a
// leading "@", from a JSON schedule file. Validate the result against
// the machine shape before running.
func ParseFaults(spec string) (*FaultSchedule, error) { return fault.Parse(spec) }

// --- workload layer ---

// WorkloadSpec declaratively selects what runs on the machine: the
// paper's bulk ttcp transfer (default, also with per-connection
// alternating direction for mixed read/write targets), a closed-loop
// request/response workload over the long-lived connections, or the
// open-loop connection-churn cell that opens, serves and closes a
// bounded population of connections and reports tail latency. Set it on
// Config.Workload; nil is the bulk default and leaves the run
// byte-identical to one without the workload layer.
type WorkloadSpec = workload.Spec

// WorkloadKind tags a built-in workload.
type WorkloadKind = workload.Kind

// The built-in workload kinds.
const (
	WorkloadBulk     = workload.KindBulk
	WorkloadRPC      = workload.KindRPC
	WorkloadOpenLoop = workload.KindOpenLoop
)

// LatencySketch is the quantile sketch request latencies land in
// (Result.Latency): log-linear buckets, ~3% relative error.
type LatencySketch = stats.Sketch

// ParseWorkload builds a workload spec from the CLI/HTTP syntax — a
// kind followed by comma-separated key=value pairs, e.g.
// "openloop,conns=100000,interval=40000,arrival=pareto" — or, with a
// leading "@", from a JSON spec file. Defaults are applied and the
// result validated.
func ParseWorkload(spec string) (*WorkloadSpec, error) { return workload.Parse(spec) }

// --- interrupt steering and coalescing ---

// CoalesceConfig selects the NICs' receive-interrupt coalescing model:
// the legacy fixed inter-IRQ throttle (zero value / nil), an absolute
// hold-off timer, a frame-count threshold with a timeout backstop, or
// the adaptive mode that widens its window with observed burst rate.
// Set it on Config.Coalesce; nil is the legacy default and leaves the
// run byte-identical to one without the coalescing subsystem.
type CoalesceConfig = netdev.CoalesceConfig

// The coalescing modes.
const (
	CoalesceLegacy   = netdev.CoalesceLegacy
	CoalesceTimer    = netdev.CoalesceTimer
	CoalesceFrames   = netdev.CoalesceFrames
	CoalesceAdaptive = netdev.CoalesceAdaptive
)

// ParseCoalesce builds a coalescing config from the CLI/HTTP syntax — a
// mode followed by comma-separated key=value pairs, e.g.
// "timer,usecs=100" or "adaptive,min=5,max=250,frames=8" — or, with a
// leading "@", from a JSON config file. Empty selects the legacy
// throttle (nil). Defaults are applied and the result validated.
func ParseCoalesce(spec string) (*CoalesceConfig, error) { return netdev.ParseCoalesce(spec) }
