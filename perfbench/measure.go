package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// session is one set-up instance of a workload, ready to be timed.
type session interface {
	// op runs the client's seq-th operation. It returns the latency of
	// the timed call alone (output checks run outside it) and an error
	// when the op failed: a call error, a non-200 reply or an output
	// that differs from the first one for the same input.
	op(client, seq int) (time.Duration, error)
	// counters returns the program's cumulative counters as read from
	// outside (the JSON /metrics bodies), for deltas over a phase.
	counters() (map[string]float64, error)
	// finish runs after the timed phase. It returns the run's output
	// digest, the number of closing check ops it made, and a failure if
	// any of them failed.
	finish() (digest string, checks int, failure error)
	// layers adds the per-layer metrics derived from the traced phase's
	// spans and counter deltas.
	layers(ix spanIndex, delta map[string]float64, m metrics)
	close()
}

// workload describes how one workload is set up and driven.
type workload struct {
	name string
	// clients is the number of closed-loop callers.
	clients int
	// round is the number of ops that form one indivisible round; a
	// phase only ends on a round boundary. When a round has more than
	// one op, op seq is of kind seq%round, and kinds differ in cost by
	// design (campaign's panels, fleet-compare's traces). Latency
	// percentiles are then taken over each kind's median latency, so one
	// slow sample cannot move a percentile onto a neighbouring kind, and
	// the median is the Harrell–Davis estimate over the kinds' medians.
	round int
	// chunkOps is the number of consecutive ops whose rate and CPU time
	// make one sample of ops_per_s and cpu_ms_per_op.
	chunkOps int
	// tailMax caps the tail percentile (see tailPercentile).
	tailMax float64
	setup   func(seed uint64, rec *recorder) (session, error)
}

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRuns = 5

// missCounter is a session whose ops include cache misses placed at
// fixed op indexes. How many of them a timed phase reaches depends on
// its op rate, so the phase counts them per chunk.
type missCounter interface {
	// missesSent is the number of such misses sent so far.
	missesSent() int64
}

// missesSent reads s's miss count, or 0 when s places no misses.
func missesSent(s session) int64 {
	if mc, ok := s.(missCounter); ok {
		return mc.missesSent()
	}
	return 0
}

// phase is what one timed stretch of ops measured.
type phase struct {
	ops, failed int
	wall        time.Duration
	cpu         time.Duration
	allocBytes  uint64
	// chunks splits the ops, in completion order, into runs of chunkOps;
	// a trailing partial chunk is left out.
	chunks []chunk
	// misses is how many first-touch misses (see missCounter) the phase
	// sent.
	misses int64
	lat    []time.Duration
	// kindMedians holds each op kind's median latency in milliseconds,
	// sorted, when a round has several kinds of op.
	kindMedians []float64
	steal       float64
	firstErr    error
	nextSeq     []int
}

// chunk is one run of consecutive ops.
type chunk struct {
	rate     float64 // ops per second
	cpuPerOp float64 // process CPU milliseconds per op
	steal    float64 // host steal share
	misses   int64   // first-touch misses sent (see missCounter)
}

// mark is the clock, CPU time and host counters when the n-th op of a
// phase ended.
type mark struct {
	n       int64
	at, cpu time.Duration
	host    cpuStat
	misses  int64
}

// opRecord is one op's kind and latency.
type opRecord struct {
	kind int
	lat  time.Duration
}

// kindLatencies replaces each op's latency with the median latency of
// its kind, and returns the kinds' medians in milliseconds, sorted.
func kindLatencies(ops []opRecord) (lat []time.Duration, medians []float64) {
	byKind := map[int][]float64{}
	for _, o := range ops {
		byKind[o.kind] = append(byKind[o.kind], float64(o.lat))
	}
	for _, l := range byKind {
		m := time.Duration(median(l))
		for range l {
			lat = append(lat, m)
		}
		medians = append(medians, float64(m)/float64(time.Millisecond))
	}
	sort.Float64s(medians)
	return lat, medians
}

// buildChunks turns the marks taken every size ops into chunks.
func buildChunks(marks []mark, size int, start mark) []chunk {
	sort.Slice(marks, func(i, j int) bool { return marks[i].n < marks[j].n })
	chunks := make([]chunk, len(marks))
	prev := start
	for i, m := range marks {
		chunks[i] = chunk{
			rate:     float64(size) / (m.at - prev.at).Seconds(),
			cpuPerOp: float64(m.cpu-prev.cpu) / float64(time.Millisecond) / float64(size),
			steal:    stealFrac(prev.host, m.host),
			misses:   m.misses - prev.misses,
		}
		prev = m
	}
	return chunks
}

// runPhase drives every client in a closed loop, each starting at its
// own sequence number, until dur has passed and the current round is
// complete.
func runPhase(s session, w workload, seqs []int, dur time.Duration) phase {
	type clientResult struct {
		ops      []opRecord
		failed   int
		firstErr error
		next     int
	}
	results := make([]clientResult, w.clients)
	var (
		done    atomic.Int64
		marksMu sync.Mutex
		marks   []mark
	)
	first := mark{cpu: cpuTime(), host: readCPUStat(), misses: missesSent(s)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			seq := seqs[c]
			for ; ; seq++ {
				if seq%w.round == 0 && seq > seqs[c] && time.Since(start) >= dur {
					break
				}
				lat, err := s.op(c, seq)
				if n := done.Add(1); n%int64(w.chunkOps) == 0 {
					m := mark{n: n, at: time.Since(start), cpu: cpuTime(), host: readCPUStat(), misses: missesSent(s)}
					marksMu.Lock()
					marks = append(marks, m)
					marksMu.Unlock()
				}
				r.ops = append(r.ops, opRecord{seq % w.round, lat})
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("client %d op %d: %w", c, seq, err)
					}
				}
			}
			r.next = seq
		}(c)
	}
	wg.Wait()

	p := phase{wall: time.Since(start), cpu: cpuTime() - first.cpu}
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - allocStart
	p.steal = stealFrac(first.host, readCPUStat())
	p.misses = missesSent(s) - first.misses
	var ops []opRecord
	for _, r := range results {
		p.ops += len(r.ops)
		p.failed += r.failed
		ops = append(ops, r.ops...)
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
		p.nextSeq = append(p.nextSeq, r.next)
	}
	p.chunks = buildChunks(marks, w.chunkOps, first)
	if w.round > 1 {
		p.lat, p.kindMedians = kindLatencies(ops)
	} else {
		for _, o := range ops {
			p.lat = append(p.lat, o.lat)
		}
	}
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuStat is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the host's aggregate CPU counters; on a system
// without /proc/stat it returns zeros and the steal share reads 0.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	return parseCPUStat(sc.Text())
}

// parseCPUStat parses the "cpu user nice system idle iowait irq
// softirq steal ..." line. Guest time is already counted in user time,
// so only the first eight fields make up the total.
func parseCPUStat(line string) cpuStat {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the share of host CPU time stolen between two reads.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
