package serve

// Request resolution: the validation every /predict item passes at the
// router and again at its shard. A warm spelling costs two map reads,
// not a DSL parse and a fresh device preset: parsed pipelines are kept
// in a bounded table keyed by the raw spelling, and devices come from
// one read-only copy of each preset.

import (
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

// MaxPatternStages bounds the stages of one pattern pipeline. Every
// stage is at least one pass over both size² operands, so a request
// with more is rejected before it is parsed: one body cannot chain
// thousands of transforms.
const MaxPatternStages = 16

// Resolution table bounds: it stores at most patternTableCap
// spellings, none longer than patternTableMaxLen bytes. Other spellings
// are parsed on every request.
const (
	patternTableCap    = 1024
	patternTableMaxLen = 256
)

// Resolved is the executable form of a validated PredictRequest: the
// device preset, parsed datatype and pattern, and the canonical cache
// key every serving layer coalesces on.
type Resolved struct {
	// Device is the resolved preset, shared by every request for it:
	// read it, never write it.
	Device *device.Device
	// DType is the parsed datatype.
	DType matrix.DType
	// Pattern is the parsed input-pattern pipeline.
	Pattern patterns.Pattern
	// Key is the canonical (device, dtype, pattern, size) identity.
	Key Key
}

// sharedPresets holds one copy of each device preset, built once and
// never written.
var sharedPresets = func() map[string]*device.Device {
	m := make(map[string]*device.Device)
	for _, d := range device.All() {
		m[d.Name] = d
	}
	return m
}()

// patternTable is the resolution table: successfully parsed pipelines
// by raw spelling. Parse errors are never stored.
var patternTable = struct {
	mu sync.RWMutex
	m  map[string]patterns.Pattern
}{m: make(map[string]patterns.Pattern)}

// ResolveRequest validates a predict request into its executable
// parts, applying the Default* values to empty fields and rejecting
// unknown devices and dtypes, patterns of more than MaxPatternStages
// stages or that do not parse, and sizes outside [8, maxSize]
// (0 = DefaultMaxSize). Core and the cluster router share this exact
// code path, so a request invalid at the router fails with
// byte-identical wording to a request invalid at a shard.
func ResolveRequest(req PredictRequest, maxSize int) (Resolved, error) {
	if maxSize <= 0 {
		maxSize = DefaultMaxSize
	}
	if req.Device == "" {
		req.Device = DefaultDevice
	}
	if req.DType == "" {
		req.DType = DefaultDType
	}
	if req.Pattern == "" {
		req.Pattern = DefaultPattern
	}
	if req.Size == 0 {
		req.Size = DefaultSize
	}
	dev, err := lookupDevice(req.Device)
	if err != nil {
		return Resolved{}, err
	}
	dt, ok := matrix.ParseDType(req.DType)
	if !ok {
		return Resolved{}, badRequestf("unknown dtype %q", req.DType)
	}
	pat, err := parsePattern(req.Pattern)
	if err != nil {
		return Resolved{}, err
	}
	if req.Size < 8 || req.Size > maxSize {
		return Resolved{}, badRequestf("size %d out of [8, %d]", req.Size, maxSize)
	}
	key := Key{Device: dev.Name, DType: dt, Pattern: pat.Name, Size: req.Size}
	return Resolved{Device: dev, DType: dt, Pattern: pat, Key: key}, nil
}

// lookupDevice returns the shared preset with the given name.
func lookupDevice(name string) (*device.Device, error) {
	if dev, ok := sharedPresets[name]; ok {
		return dev, nil
	}
	return nil, badRequestf("unknown device %q (have %v)", name, device.Names())
}

// parsePattern returns the parsed pipeline for a spelling, from the
// resolution table when an earlier request stored it. A stored
// spelling has passed the stage bound, so a table hit skips it.
func parsePattern(s string) (patterns.Pattern, error) {
	patternTable.mu.RLock()
	pat, ok := patternTable.m[s]
	patternTable.mu.RUnlock()
	if ok {
		return pat, nil
	}
	if n := strings.Count(s, "|") + 1; n > MaxPatternStages {
		return patterns.Pattern{}, badRequestf("bad pattern: %d stages exceeds limit %d", n, MaxPatternStages)
	}
	pat, err := patterns.Parse(s)
	if err != nil {
		return patterns.Pattern{}, badRequestf("bad pattern: %v", err)
	}
	if len(s) <= patternTableMaxLen {
		patternTable.mu.Lock()
		if len(patternTable.m) < patternTableCap {
			// A copy, so the table never pins a caller's larger buffer.
			patternTable.m[strings.Clone(s)] = pat
		}
		patternTable.mu.Unlock()
	}
	return pat, nil
}
