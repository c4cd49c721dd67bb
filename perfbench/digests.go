package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// committedDigests holds each workload's output digest for defaultSeed.
//
//go:embed digests.json
var committedDigests []byte

// checkCommitted compares a default-seed run's digest with the
// committed one. Other seeds have nothing to compare against.
func checkCommitted(cfg runConfig, got string) bool {
	if cfg.seed != defaultSeed {
		return true
	}
	var want map[string]string
	if err := json.Unmarshal(committedDigests, &want); err != nil {
		fmt.Printf("check: digests.json: %v\n", err)
		return false
	}
	if want[cfg.workload] != got {
		fmt.Printf("check: digest %s differs from the committed %q\n", got, want[cfg.workload])
		return false
	}
	return true
}
