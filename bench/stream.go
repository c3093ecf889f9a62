package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"

	"petscfun3d/internal/stream"
)

// streamResult is the machine's sustainable memory bandwidth, the
// denominator of every *_stream_frac metric.
type streamResult struct {
	TriadMBps float64 `json:"triad_mbps"`
	ArrayMB   float64 `json:"array_mb"`
	LLCMB     float64 `json:"llc_mb"`
	Capped    bool    `json:"capped"`
}

const streamTrials = 10

// streamArrayBytes sizes each of the three Triad arrays: four times the
// last-level cache so no part of a sweep is served from it, but never
// more than 1/64 of RAM — a virtual machine that reports its host's
// whole L3 would otherwise spend half a minute page-faulting gigabytes
// in. A capped run says so. An unreadable cache size is taken as 64 MB.
func streamArrayBytes(h host) (bytes int64, capped bool) {
	llc := h.LLCMB
	if llc == 0 {
		llc = 64
	}
	bytes = int64(4 * llc * 1e6)
	if limit := int64(h.RAMMB * 1e6 / 64); limit > 0 && bytes > limit {
		bytes, capped = limit, true
	}
	return bytes, capped
}

// measureStream runs STREAM over three arrays of arrayBytes each and
// keeps the Triad row: the best of streamTrials sweeps, in STREAM's
// own byte convention.
func measureStream(h host, arrayBytes int64, capped bool) (streamResult, error) {
	res, err := stream.Run(int(arrayBytes/8), streamTrials)
	if err != nil {
		return streamResult{}, err
	}
	triad := res[len(res)-1]
	return streamResult{
		TriadMBps: triad.Bandwidth / 1e6,
		ArrayMB:   float64(arrayBytes) / 1e6,
		LLCMB:     h.LLCMB,
		Capped:    capped,
	}, nil
}

// streamChild is the name the harness re-executes itself under to
// measure STREAM in a process of its own, so the arrays never share a
// heap with a solve.
const streamChild = "stream"

func runStreamChild() error {
	h := readHost()
	bytes, capped := streamArrayBytes(h)
	res, err := measureStream(h, bytes, capped)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// streamInChild runs the STREAM child and waits for it.
func streamInChild() (streamResult, error) {
	var res streamResult
	self, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("stream: %w", err)
	}
	cmd := exec.Command(self, "-workload", streamChild)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("stream child: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("stream child output: %w", err)
	}
	return res, nil
}
