package perf

import "fmt"

// CountersDump is the serializable form of a Counters file: the symbol
// table flattened to registration order plus the raw count matrix. It
// exists so higher layers (the result cache) can persist a measured
// counter file and reconstruct it bit-for-bit in another process.
type CountersDump struct {
	CPUs    int
	Symbols []SymbolInfo
	// Counts is the flat [sym*stride + cpu*NumEvents + event] matrix,
	// truncated or zero-padded to Symbols coverage on restore.
	Counts []uint64
}

// Dump flattens the counter file and its symbol table.
func (c *Counters) Dump() CountersDump {
	c.ensure()
	d := CountersDump{
		CPUs:    c.cpus,
		Symbols: make([]SymbolInfo, c.table.Len()),
		Counts:  make([]uint64, len(c.counts)),
	}
	for i := range d.Symbols {
		d.Symbols[i] = c.table.Info(Symbol(i))
	}
	copy(d.Counts, c.counts)
	return d
}

// CountersFromDump reconstructs a counter file (and a fresh symbol table)
// from a dump. The restored file reads identically to the dumped one:
// same symbols in the same registration order, same counts. A dump Dump
// could not have produced — a repeated symbol, or a matrix of the wrong
// size (checked, without overflow, before allocating) — is an error.
func CountersFromDump(d CountersDump) (*Counters, error) {
	if d.CPUs <= 0 || len(d.Symbols) > 0 && d.CPUs > len(d.Counts) || len(d.Counts) != len(d.Symbols)*d.CPUs*int(NumEvents) {
		return nil, fmt.Errorf("perf: dump has %d counts, want %d symbols × %d CPUs × %d events",
			len(d.Counts), len(d.Symbols), d.CPUs, int(NumEvents))
	}
	table := NewSymbolTable()
	for _, info := range d.Symbols {
		if table.Lookup(info.Name) != NoSymbol {
			return nil, fmt.Errorf("perf: dump repeats symbol %q", info.Name)
		}
		table.Register(info.Name, info.Bin)
	}
	c := NewCounters(table, d.CPUs)
	copy(c.counts, d.Counts)
	return c, nil
}
