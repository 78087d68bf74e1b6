package main

// campaign: the paper's measurement campaign, round after round. A
// round is the 16 figure panels experiments.Figures returns plus
// BuildFig8 over them. An op is one experiments.Run panel or the
// round's BuildFig8, so a round is 17 ops.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
)

var campaignWorkload = workload{
	name:     "campaign",
	clients:  1,
	round:    17,
	chunkOps: 17,
	tailMax:  75,
	setup:    setupCampaign,
}

// campaignSize is the matrix dimension: one fp32 operand pair (2 MiB)
// is the size of a core's L2 cache.
const campaignSize = 512

// panelFamily maps a panel to the paper's input-variation family.
func panelFamily(id string) string {
	switch {
	case strings.HasPrefix(id, "fig1"), strings.HasPrefix(id, "fig2"):
		return "runtime"
	case strings.HasPrefix(id, "fig3"):
		return "distribution"
	case strings.HasPrefix(id, "fig4"):
		return "bitsim"
	case strings.HasPrefix(id, "fig5"):
		return "placement"
	default:
		return "sparsity"
	}
}

type campaignSession struct {
	cfg    experiments.Config
	panels []experiments.Experiment
	rec    *recorder
	seed   uint64

	round     []*experiments.FigureResult
	roundSpan openSpan
	first     []string // panel digests of the first round
	firstFig8 string
	digest    string // digest of the first round
}

func setupCampaign(seed uint64, rec *recorder) (session, error) {
	cfg := experiments.Default()
	cfg.Size = campaignSize
	cfg.Seeds = 1
	s := &campaignSession{cfg: cfg, rec: rec, seed: seed}
	for _, e := range experiments.Figures() {
		// The panel ID feeds the generation seed, so salting it gives
		// every workload seed its own inputs.
		e.ID = fmt.Sprintf("%s/seed%d", e.ID, seed)
		s.panels = append(s.panels, e)
	}
	// Warm-up: the smallest panel and a Fig. 8 over it, so lazy tables
	// and the runner's first allocations land before timing.
	fr, err := experiments.Run(s.panels[0], cfg)
	if err != nil {
		return nil, err
	}
	experiments.BuildFig8([]*experiments.FigureResult{fr})
	return s, nil
}

func (s *campaignSession) op(_ int, seq int) (time.Duration, error) {
	i := seq % (len(s.panels) + 1)
	if i == len(s.panels) {
		return s.fig8()
	}
	if i == 0 {
		s.round = s.round[:0]
		s.roundSpan = s.rec.begin(0)
	}
	panel := s.panels[i]
	sp := s.rec.begin(s.roundSpan.id)
	start := time.Now()
	fr, err := experiments.Run(panel, s.cfg)
	lat := time.Since(start)
	sp.end("experiments." + panelFamily(panel.ID))
	if err != nil {
		return lat, err
	}
	s.round = append(s.round, fr)
	d := digestFigure(fr)
	if len(s.first) < len(s.panels) {
		s.first = append(s.first, d)
	} else if d != s.first[i] {
		return lat, fmt.Errorf("%s: result differs from the first round", panel.ID)
	}
	return lat, nil
}

// fig8 is a round's last op: Fig. 8 over every panel but the
// runtime/energy pair, as cmd/figures builds it.
func (s *campaignSession) fig8() (time.Duration, error) {
	sp := s.rec.begin(s.roundSpan.id)
	start := time.Now()
	f8 := experiments.BuildFig8(s.round[2:])
	lat := time.Since(start)
	sp.end("experiments.fig8")
	s.roundSpan.end("campaign.round")
	d8 := digestFig8(f8)
	if s.firstFig8 != "" {
		if d8 != s.firstFig8 {
			return lat, fmt.Errorf("fig8 differs from the first round")
		}
		return lat, nil
	}
	s.firstFig8 = d8
	s.digest = digestStrings(append(append([]string(nil), s.first...), d8))
	if s.seed == defaultSeed && s.digest != committedDigests["campaign"] {
		return lat, fmt.Errorf("round digest %s differs from the committed %s", s.digest, committedDigests["campaign"])
	}
	return lat, nil
}

func (s *campaignSession) counters() (map[string]float64, error) { return nil, nil }

func (s *campaignSession) finish() (string, int, error) { return s.digest, 0, nil }

func (s *campaignSession) layers(ix spanIndex, _ map[string]float64, m metrics) {
	// Per round: the summed panel time of each family.
	families := []string{"runtime", "distribution", "bitsim", "placement", "sparsity", "fig8"}
	perRound := map[string][]float64{}
	for _, r := range ix.byName["campaign.round"] {
		sums := map[string]float64{}
		for _, c := range ix.children[r.ID] {
			sums[strings.TrimPrefix(c.Name, "experiments.")] += float64(c.End-c.Start) / 1e6
		}
		for _, f := range families {
			perRound[f] = append(perRound[f], sums[f])
		}
	}
	for _, f := range families {
		m.set("experiments."+f+"_ms", median(perRound[f]), "ms")
	}
	points := 0
	for _, p := range s.panels {
		points += len(p.Points) * len(s.cfg.DTypes)
	}
	m.set("experiments.points", float64(points), "count")
}

func (s *campaignSession) close() {}
