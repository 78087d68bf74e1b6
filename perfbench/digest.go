package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"repro/internal/experiments"
	"repro/internal/sched"
)

// committedDigests holds each workload's output digest at defaultSeed.
// Regenerate it by running each workload at that seed and copying the
// printed digest.
//
//go:embed digests.json
var digestsJSON []byte

var committedDigests = mustDigests(digestsJSON)

func mustDigests(b []byte) map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return m
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:16]) }

// digestFigure digests a panel's cells in datatype order. %v prints a
// float64 in its shortest exact form, so equal digests mean equal bits.
func digestFigure(fr *experiments.FigureResult) string {
	h := sha256.New()
	for _, dt := range fr.Config.DTypes {
		fmt.Fprintf(h, "%v %v\n", dt, fr.Series[dt])
	}
	return sum(h)
}

// digestFig8 digests a Fig. 8 result; fmt prints maps in key order.
func digestFig8(f *experiments.Fig8Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v", *f)
	return sum(h)
}

// digestFront digests a comparison front through its JSON encoding.
func digestFront(f *sched.Front) (string, error) {
	h := sha256.New()
	if err := f.WriteJSON(h); err != nil {
		return "", err
	}
	return sum(h), nil
}

// digestStrings digests an ordered list of digests.
func digestStrings(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintln(h, p)
	}
	return sum(h)
}

var (
	cachedTrue  = []byte(`"cached":true`)
	cachedFalse = []byte(`"cached":false`)
)

// digestPrediction digests one encoded PredictResponse with its cached
// flag left out, and reports the flag. ok is false when the body has no
// cached field.
func digestPrediction(body []byte) (digest string, cached, ok bool) {
	h := sha256.New()
	if i := bytes.Index(body, cachedTrue); i >= 0 {
		h.Write(body[:i])
		h.Write(bytes.TrimRight(body[i+len(cachedTrue):], "\n"))
		return sum(h), true, true
	}
	if i := bytes.Index(body, cachedFalse); i >= 0 {
		h.Write(body[:i])
		h.Write(bytes.TrimRight(body[i+len(cachedFalse):], "\n"))
		return sum(h), false, true
	}
	return "", false, false
}
