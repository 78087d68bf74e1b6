package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestPredictBatchMatchesSingle(t *testing.T) {
	// Every batch item must carry exactly the response a single
	// /predict for the same request returns (Cached flag aside).
	s := NewCore(testConfig())
	defer s.Close()

	reqs := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 64},
		{Pattern: "constant(7)", Size: 64},
		{DType: "INT8", Pattern: "gaussian(default)", Size: 64},
	}
	batch, err := s.PredictBatch(context.Background(), BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(batch.Items), len(reqs))
	}
	for i, req := range reqs {
		single, err := s.Predict(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got := batch.Items[i].Response
		if got == nil {
			t.Fatalf("item %d: unexpected error %q", i, batch.Items[i].Error)
		}
		if got.PredictedW != single.PredictedW || got.SimulatedW != single.SimulatedW ||
			got.Pattern != single.Pattern || got.Device != single.Device || got.DType != single.DType {
			t.Errorf("item %d: batch response %+v != single response %+v", i, got, single)
		}
	}
}

func TestPredictBatchInlineHitsMatchPredict(t *testing.T) {
	// Two cores warmed alike: one answers a batch mixing cached keys,
	// duplicates, a miss and an invalid item, the other the same items
	// one Predict at a time. Items must match byte for byte, cached
	// flags included, and distinct/coalesced must count the keys.
	ctx := context.Background()
	warm := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 64},
		{DType: "INT8", Pattern: "constant(7)", Size: 48},
		{Pattern: "gaussian(default) | sparsify(50%)", Size: 32},
	}
	reqs := []PredictRequest{
		{Pattern: "gaussian( default )", Size: 64},
		{DType: "int8", Pattern: "constant(7.0)", Size: 48},
		{Pattern: "gaussian(default) | sort(rows, 50%)", Size: 32},
		{Pattern: "gaussian(default)", Size: 64},
		{Pattern: "gaussian(default) | frobnicate(9)", Size: 64},
		{Pattern: "gaussian(default)|sort(rows, frac=0.5)", Size: 32},
		{Pattern: "gaussian(default)|sparsify(50%)", Size: 32},
	}
	batchCore, singleCore := NewCore(testConfig()), NewCore(testConfig())
	defer batchCore.Close()
	defer singleCore.Close()
	for _, c := range []*Core{batchCore, singleCore} {
		for _, req := range warm {
			if _, err := c.Predict(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}

	sims := batchCore.Metrics()["serve.simulations"]
	batch, err := batchCore.PredictBatch(ctx, BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if got := batchCore.Metrics()["serve.simulations"] - sims; got != 1 {
		t.Errorf("batch ran %d simulations, want 1 (its one miss)", got)
	}
	keys := map[Key]bool{}
	valid := 0
	for i, req := range reqs {
		item := batch.Items[i]
		single, err := singleCore.Predict(ctx, req)
		if err != nil {
			if item.Error != err.Error() || item.Response != nil {
				t.Errorf("item %d: %+v, want error %q", i, item, err)
			}
			continue
		}
		valid++
		res, err := ResolveRequest(req, testConfig().MaxSize)
		if err != nil {
			t.Fatal(err)
		}
		keys[res.Key] = true
		if item.Response == nil {
			t.Fatalf("item %d: error %q, want a response", i, item.Error)
		}
		got, _ := json.Marshal(item.Response)
		want, _ := json.Marshal(single)
		if !bytes.Equal(got, want) {
			t.Errorf("item %d:\nbatch  %s\nsingle %s", i, got, want)
		}
	}
	if batch.Distinct != len(keys) || batch.Coalesced != valid-len(keys) {
		t.Errorf("distinct %d coalesced %d, want %d and %d", batch.Distinct, batch.Coalesced, len(keys), valid-len(keys))
	}
}

func TestPredictBatchCoalesces(t *testing.T) {
	// 96 requests over 3 distinct keys (with spelling variants that
	// canonicalize together) must cost at most 3 simulations.
	s := NewCore(testConfig())
	defer s.Close()

	var reqs []PredictRequest
	variants := []string{
		"gaussian(default)",
		"gaussian( default )", // same canonical key
		"constant(7)",
		"constant(7.0)", // same canonical key
		"gaussian(default) | sparsify(50%)",
		"gaussian(default)|sparsify(50%)", // same canonical key
	}
	for i := 0; i < 96; i++ {
		reqs = append(reqs, PredictRequest{Pattern: variants[i%len(variants)], Size: 64})
	}
	before := s.Metrics()["serve.simulations"]
	resp, err := s.PredictBatch(context.Background(), BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Distinct != 3 {
		t.Errorf("distinct = %d, want 3", resp.Distinct)
	}
	if resp.Coalesced != 93 {
		t.Errorf("coalesced = %d, want 93", resp.Coalesced)
	}
	sims := s.Metrics()["serve.simulations"] - before
	if sims > 3 {
		t.Errorf("batch ran %d simulations, want ≤ 3", sims)
	}
	for i, item := range resp.Items {
		if item.Response == nil {
			t.Fatalf("item %d: %s", i, item.Error)
		}
	}
	// Coalescing is visible in the counters the health endpoint serves.
	m := s.Metrics()
	if m["serve.batch.requests"] != 1 {
		t.Errorf("serve.batch.requests = %d, want 1", m["serve.batch.requests"])
	}
	if m["serve.batch.coalesced"] != 93 {
		t.Errorf("serve.batch.coalesced = %d, want 93", m["serve.batch.coalesced"])
	}
}

func TestPredictBatchPerItemErrors(t *testing.T) {
	// Invalid items fail in place with the single-shot error message;
	// valid siblings still succeed.
	s := NewCore(testConfig())
	defer s.Close()

	reqs := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 64},
		{Device: "TPU-v5"},
		{Pattern: "gauss!!(", Size: 64},
		{Pattern: "constant(7)", Size: 1 << 20},
		{Pattern: "constant(7)", Size: 64},
	}
	resp, err := s.PredictBatch(context.Background(), BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := []bool{false, true, true, true, false}
	for i, item := range resp.Items {
		if (item.Error != "") != wantErr[i] {
			t.Errorf("item %d: error=%q, wantErr=%v", i, item.Error, wantErr[i])
		}
		if wantErr[i] && item.Response != nil {
			t.Errorf("item %d: both response and error set", i)
		}
	}
	if resp.Distinct != 2 || resp.Coalesced != 0 {
		t.Errorf("distinct/coalesced = %d/%d, want 2/0", resp.Distinct, resp.Coalesced)
	}

	if _, err := s.PredictBatch(context.Background(), BatchRequest{}); err == nil {
		t.Error("empty batch must be rejected")
	}
	tooMany := BatchRequest{Requests: make([]PredictRequest, MaxBatchItems+1)}
	if _, err := s.PredictBatch(context.Background(), tooMany); err == nil {
		t.Error("oversized batch must be rejected")
	}
}

func TestPredictBatchHTTP(t *testing.T) {
	// The endpoint speaks the documented JSON shape end to end and
	// preserves request order.
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body, _ := json.Marshal(BatchRequest{Requests: []PredictRequest{
		{Pattern: "constant(7)", Size: 64},
		{Pattern: "gaussian(default)", Size: 64},
		{Pattern: "constant(7)", Size: 64},
	}})
	resp, err := http.Post(ts.URL+"/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 3 || br.Distinct != 2 || br.Coalesced != 1 {
		t.Fatalf("items/distinct/coalesced = %d/%d/%d, want 3/2/1", len(br.Items), br.Distinct, br.Coalesced)
	}
	if br.Items[0].Response.Pattern != "constant(7)" ||
		br.Items[1].Response.Pattern != "gaussian(default)" ||
		br.Items[2].Response.Pattern != "constant(7)" {
		t.Errorf("item order not preserved: %+v", br.Items)
	}

	// GET is rejected like the other POST endpoints.
	get, err := http.Get(ts.URL + "/predict/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", get.StatusCode)
	}
}

func TestPredictBatchConcurrent(t *testing.T) {
	// Concurrent batches over overlapping keys stay race-clean and
	// agree with the serial answers (CI runs this under -race).
	s := NewCore(testConfig())
	defer s.Close()

	keys := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 64},
		{Pattern: "constant(7)", Size: 64},
		{Pattern: "gaussian(default) | sort(rows, 100%)", Size: 64},
	}
	serial := make(map[string]float64)
	for _, r := range keys {
		resp, err := s.Predict(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		serial[resp.Pattern] = resp.PredictedW
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var reqs []PredictRequest
			for i := 0; i < 24; i++ {
				reqs = append(reqs, keys[(w+i)%len(keys)])
			}
			resp, err := s.PredictBatch(context.Background(), BatchRequest{Requests: reqs})
			if err != nil {
				errs[w] = err
				return
			}
			for i, item := range resp.Items {
				if item.Response == nil {
					errs[w] = fmt.Errorf("item %d: %s", i, item.Error)
					return
				}
				if got := item.Response.PredictedW; got != serial[item.Response.Pattern] {
					errs[w] = fmt.Errorf("item %d: %v != serial %v", i, got, serial[item.Response.Pattern])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
