package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// pinSeed is the seed the oracle's digests were recorded at. Any other
// seed is checked by agreement between the run's own passes instead.
const pinSeed = 1

// oraclePath is where --pin writes, relative to the repository root.
const oraclePath = "perfbench/oracle.json"

// oracleJSON maps workload → cell → digest of the cell's exported
// result bytes plus its simulated counts (for fleet_sweep: the merged
// NDJSON stream), all at pinSeed.
//
//go:embed oracle.json
var oracleJSON []byte

// pinned returns the workload's pinned digests when the run uses
// pinSeed, and nil (check passes against each other) otherwise. A
// pinned seed without pins would silently skip the oracle, so it is an
// error.
func pinned(b *bench) (map[string]string, error) {
	if b.pin || b.seed != pinSeed {
		return nil, nil
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(oracleJSON, &all); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if all[b.workload] == nil {
		return nil, fmt.Errorf("no pinned digests for %s (run with --pin to record them)", b.workload)
	}
	return all[b.workload], nil
}

// pin records the workload's digests in the oracle file. Only run it
// when a change is meant to alter simulated results.
func pin(b *bench, digests map[string]string) error {
	if b.seed != pinSeed {
		return fmt.Errorf("digests are pinned at seed %d only", pinSeed)
	}
	all := map[string]map[string]string{}
	if data, err := os.ReadFile(oraclePath); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	all[b.workload] = digests
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(oraclePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %d digests for %s in %s\n", len(digests), b.workload, oraclePath)
	return nil
}
