package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

// resolveReference is the resolver without the resolution table or
// the shared presets: a fresh preset and a fresh parse per call, with
// the stage bound checked before parsing.
func resolveReference(req PredictRequest, maxSize int) (Resolved, error) {
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
	dev := device.ByName(req.Device)
	if dev == nil {
		return Resolved{}, badRequestf("unknown device %q (have %v)", req.Device, device.Names())
	}
	dt, ok := matrix.ParseDType(req.DType)
	if !ok {
		return Resolved{}, badRequestf("unknown dtype %q", req.DType)
	}
	if n := strings.Count(req.Pattern, "|") + 1; n > MaxPatternStages {
		return Resolved{}, badRequestf("bad pattern: %d stages exceeds limit %d", n, MaxPatternStages)
	}
	pat, err := patterns.Parse(req.Pattern)
	if err != nil {
		return Resolved{}, badRequestf("bad pattern: %v", err)
	}
	if req.Size < 8 || req.Size > maxSize {
		return Resolved{}, badRequestf("size %d out of [8, %d]", req.Size, maxSize)
	}
	key := Key{Device: dev.Name, DType: dt, Pattern: pat.Name, Size: req.Size}
	return Resolved{Device: dev, DType: dt, Pattern: pat, Key: key}, nil
}

// checkResolvesLikeReference resolves req twice, so the second call can
// read the resolution table, and compares both with the reference.
func checkResolvesLikeReference(t *testing.T, req PredictRequest) {
	t.Helper()
	want, wantErr := resolveReference(req, 0)
	for pass := 0; pass < 2; pass++ {
		got, err := ResolveRequest(req, 0)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("pass %d, %+v: error %v, reference %v", pass, req, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("pass %d, %+v: error %q, reference %q", pass, req, err, wantErr)
			}
			continue
		}
		if got.Key != want.Key || got.Device.Name != want.Device.Name ||
			got.DType != want.DType || got.Pattern.Name != want.Pattern.Name {
			t.Fatalf("pass %d, %+v: resolved %+v/%s/%v/%s, reference %+v/%s/%v/%s", pass, req,
				got.Key, got.Device.Name, got.DType, got.Pattern.Name,
				want.Key, want.Device.Name, want.DType, want.Pattern.Name)
		}
		if !reflect.DeepEqual(got.Device, want.Device) {
			t.Fatalf("pass %d, %+v: shared preset %s differs from a fresh one", pass, req, got.Device.Name)
		}
	}
}

// FuzzResolveRequest checks the table-backed resolver against the
// reference on arbitrary requests.
func FuzzResolveRequest(f *testing.F) {
	f.Add("A100-PCIe-40GB", "FP16", "gaussian(default)", 128)
	f.Fuzz(func(t *testing.T, dev, dtype, pattern string, size int) {
		checkResolvesLikeReference(t, PredictRequest{Device: dev, DType: dtype, Pattern: pattern, Size: size})
	})
}

func TestResolveRequestStageBound(t *testing.T) {
	chain := func(stages int) string {
		return "gaussian(default)" + strings.Repeat("|zerolsb(1)", stages-1)
	}
	if _, err := ResolveRequest(PredictRequest{Pattern: chain(MaxPatternStages)}, 0); err != nil {
		t.Fatalf("%d stages: %v", MaxPatternStages, err)
	}
	_, err := ResolveRequest(PredictRequest{Pattern: chain(MaxPatternStages + 1)}, 0)
	want := fmt.Sprintf("bad pattern: %d stages exceeds limit %d", MaxPatternStages+1, MaxPatternStages)
	if _, ok := err.(*RequestError); !ok || err.Error() != want {
		t.Fatalf("%d stages: error %v, want RequestError %q", MaxPatternStages+1, err, want)
	}

	// A training corpus obeys the same bound, before any sweep runs.
	c := NewCore(testConfig())
	defer c.Close()
	_, err = c.Train(context.Background(), TrainRequest{Patterns: []string{"constant(7)", chain(MaxPatternStages + 1)}})
	if _, ok := err.(*RequestError); !ok || err.Error() != want {
		t.Fatalf("/train with %d stages: error %v, want RequestError %q", MaxPatternStages+1, err, want)
	}
}

func TestPatternTableBound(t *testing.T) {
	// Run against an empty table, then put the package's back.
	patternTable.mu.Lock()
	saved := patternTable.m
	patternTable.m = make(map[string]patterns.Pattern)
	patternTable.mu.Unlock()
	defer func() {
		patternTable.mu.Lock()
		patternTable.m = saved
		patternTable.mu.Unlock()
	}()
	stored := func(s string) bool {
		patternTable.mu.RLock()
		defer patternTable.mu.RUnlock()
		_, ok := patternTable.m[s]
		return ok
	}

	long := "gaussian(default)" + strings.Repeat(" ", patternTableMaxLen-len("gaussian(default)")+1)
	bad := "gaussian(default) | frobnicate(9)"
	for _, s := range []string{long, bad} {
		for pass := 0; pass < 2; pass++ {
			checkResolvesLikeReference(t, PredictRequest{Pattern: s})
		}
		if stored(s) {
			t.Errorf("table stored %q", s)
		}
	}
	for i := 0; i < patternTableCap+8; i++ {
		checkResolvesLikeReference(t, PredictRequest{Pattern: fmt.Sprintf("constant(%d)", i)})
	}
	if n := len(patternTable.m); n != patternTableCap {
		t.Errorf("table holds %d spellings, want its bound %d", n, patternTableCap)
	}
	if late := fmt.Sprintf("constant(%d)", patternTableCap); stored(late) {
		t.Errorf("table stored %q after it was full", late)
	}
}

func TestResolveRequestConcurrent(t *testing.T) {
	// Goroutines storing and reading the same spellings at once must
	// each resolve them as the reference does.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				req := PredictRequest{Pattern: fmt.Sprintf("gaussian(default) | sparsify(%d%%)", (i*(g+1))%40), Size: 64}
				want, _ := resolveReference(req, 0)
				got, err := ResolveRequest(req, 0)
				if err != nil || got.Key != want.Key {
					t.Errorf("%q: resolved %+v (%v), reference %+v", req.Pattern, got.Key, err, want.Key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestResolveRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	req := PredictRequest{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "gaussian(default)|sparsify(50%)", Size: 128}
	if _, err := ResolveRequest(req, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ResolveRequest(req, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm canonical spelling resolves with %v allocations, want 0", allocs)
	}
}

func TestSharedPresetsStayPristine(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ctx := context.Background()
	// A miss lazily trains the predictor and simulates with the shared
	// preset; /train refits with it.
	if _, err := s.Predict(ctx, PredictRequest{Pattern: "gaussian(default) | sort(rows, 50%)", Size: 48}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx, TrainRequest{DType: "INT8", Sizes: []int{32}}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m["serve.simulations"] != 1 || m["serve.trainings"] != 2 {
		t.Fatalf("ran %d simulations and %d trainings, want 1 and 2", m["serve.simulations"], m["serve.trainings"])
	}
	for _, name := range device.Names() {
		if !reflect.DeepEqual(sharedPresets[name], device.ByName(name)) {
			t.Errorf("shared preset %s differs from a fresh device.ByName", name)
		}
	}
}

func TestRouteStringMatchesSprintf(t *testing.T) {
	// RouteHash places keys on the ring and names cache handoff ranges,
	// so RouteString must keep the bytes of its original Sprintf form.
	for _, dev := range device.Names() {
		for _, dt := range matrix.ExtendedDTypes {
			for _, size := range []int{0, 8, 64, 192, 512, 4096} {
				k := Key{Device: dev, DType: dt, Pattern: "gaussian(default)|sparsify(50%)", Size: size}
				want := fmt.Sprintf("%s\x00%s\x00%s\x00%d", k.Device, k.DType, k.Pattern, k.Size)
				if got := k.RouteString(); got != want {
					t.Fatalf("RouteString %q, want %q", got, want)
				}
				if k.RouteHash() != RouteHash(want) {
					t.Fatalf("RouteHash of %q moved", want)
				}
			}
		}
	}
}
