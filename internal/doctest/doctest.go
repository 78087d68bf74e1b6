// Package doctest parses executable API documentation. A markdown
// document annotated with `<!-- roundtrip METHOD PATH STATUS -->`
// markers — each optionally followed by a fenced ```json request body —
// becomes a list of requests a test can replay against a real handler,
// asserting the documented status codes. docs/API.md is executed this
// way by three suites: internal/serve runs the powerserve endpoints
// (cache handoff included), internal/fleet runs the fleetctl
// control-plane endpoints and internal/cluster runs the router's
// /admin topology endpoints, so no slice of the document can drift
// from its handler without failing CI.
package doctest

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
)

var roundtripMarker = regexp.MustCompile(`<!--\s*roundtrip\s+(GET|POST|DELETE)\s+(\S+)\s+(\d{3})\s*-->`)

// Example is one executable request from an API document: the marker's
// method, path and expected status, the fenced JSON body bound to it
// (empty for body-less GETs), and the marker's line number for error
// reporting.
type Example struct {
	Line   int
	Method string
	Path   string
	Status int
	Body   string
}

// Parse extracts the roundtrip examples from the markdown file at
// path, in document order. A fenced ```json block binds to the marker
// immediately preceding it (blank lines and prose allowed in between);
// unmarked blocks are illustrative responses and are skipped; a marker
// followed by a heading, another marker or EOF is body-less.
// The apidoc suites call it (TestAPIDocExamplesRoundTrip,
// TestAdminDocExamplesRoundTrip,
// TestControlPlaneDocExamplesRoundTrip).
func Parse(path string) ([]Example, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var examples []Example
	var pending *Example
	inBlock := false
	var block strings.Builder

	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case inBlock:
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				inBlock = false
				if pending != nil {
					pending.Body = block.String()
					examples = append(examples, *pending)
					pending = nil
				}
				continue
			}
			block.WriteString(text)
			block.WriteString("\n")
		case strings.HasPrefix(strings.TrimSpace(text), "```json"):
			inBlock = true
			block.Reset()
		case roundtripMarker.MatchString(text):
			if pending != nil {
				examples = append(examples, *pending)
			}
			m := roundtripMarker.FindStringSubmatch(text)
			status, _ := strconv.Atoi(m[3])
			pending = &Example{Line: line, Method: m[1], Path: m[2], Status: status}
		case strings.TrimSpace(text) != "" && pending != nil:
			if strings.HasPrefix(text, "#") {
				examples = append(examples, *pending)
				pending = nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != nil {
		examples = append(examples, *pending)
	}
	return examples, nil
}
