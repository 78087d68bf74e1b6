// Command fleetctl is the live fleet control plane: the same
// deterministic engine cmd/fleetsim replays traces through, run as a
// long-lived HTTP service that admits GEMM jobs as they arrive. Jobs
// are POSTed without arrival times — the controller stamps each with
// the engine's simulated clock, resolves its operating points through
// the oracle (in-process model, or a powerserve/powerrouter via
// -serve), and places it with the configured scheduling policy; the
// default, PredictiveHorizon, projects concurrent power demand over
// the next -window seconds and packs against -cap before it is
// breached.
//
// Usage:
//
//	fleetctl -addr :8095 -devices "A100-PCIe-40GB:4" -cap 310 -policy PredictiveHorizon -window 30
//	curl -s localhost:8095/jobs -d '{"dtype": "FP16", "pattern": "gaussian(default)", "size": 256, "iterations": 2000}'
//	curl -s localhost:8095/fleet/status
//	curl -s localhost:8095/fleet/trace > session.json    # replay: fleetsim -trace session.json ...
//	curl -s localhost:8095/fleet/report                  # 409 until drained
//
// The controller runs in virtual time: ticking pauses whenever the
// fleet drains, so idle wall-clock gaps between submissions do not
// appear in the simulated timeline. That is what makes a live session
// exactly replayable — GET /fleet/trace fed to fleetsim with the same
// fleet, cap, policy and oracle reproduces GET /fleet/report
// byte-for-byte. Endpoint shapes are documented with runnable examples
// in docs/API.md.
//
// The same determinism makes the session crash-safe: with -wal every
// admitted job is journaled (fsynced before the admission is
// acknowledged), and after a crash -resume replays the journal into a
// fresh session, reproducing the pre-crash reports byte-for-byte:
//
//	fleetctl -addr :8095 -wal session.wal ...        # killed hard
//	fleetctl -addr :8095 -resume session.wal -wal session.wal ...
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	var (
		addr        = flag.String("addr", ":8095", "listen address")
		devicesFlag = flag.String("devices", "A100-PCIe-40GB:4", "fleet spec: comma-separated model:count pairs (models from device presets)")
		capW        = flag.Float64("cap", 0, "aggregate fleet power cap in watts (0 = uncapped)")
		ambient     = flag.Float64("ambient", 0, "rack inlet temperature °C override (0 = device presets)")
		tick        = flag.Float64("tick", 1e-3, "integration step, seconds")
		horizon     = flag.Float64("horizon", 86400, "abort the session if jobs are unfinished at this simulated time, seconds")
		window      = flag.Float64("window", sched.DefaultHorizonWindowS, "PredictiveHorizon projection window, seconds")
		serveURL    = flag.String("serve", "", "resolve operating points via this powerserve base URL's /predict/batch (default: in-process model oracle)")
		policyFlag  = flag.String("policy", "PredictiveHorizon", "scheduling policy: "+strings.Join(sched.Names(), ", "))
		walPath     = flag.String("wal", "", "journal every admitted job to this append-only JSONL file, fsynced before the admission is acknowledged")
		resumePath  = flag.String("resume", "", "replay this journal into the fresh session before serving (may be the same file as -wal)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("fleetctl: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, obs.PprofHandler()); err != nil {
				log.Printf("fleetctl: pprof: %v", err)
			}
		}()
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if flag.NArg() > 0 {
		fatalUsage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	policy, err := sched.ByName(*policyFlag)
	if err != nil {
		fatalUsage(err)
	}
	if ph, ok := policy.(sched.PredictiveHorizon); ok {
		ph.WindowS = *window
		if ph.WindowS <= 0 {
			fatalUsage(fmt.Errorf("-window must be positive"))
		}
		policy = ph
	} else if set["window"] {
		fatalUsage(fmt.Errorf("-window only applies to the PredictiveHorizon policy, which is not selected"))
	}

	devs, err := device.ParseSpec(*devicesFlag)
	if err != nil {
		fatal(err)
	}

	var oracle fleet.Oracle = fleet.NewModelOracle()
	if *serveURL != "" {
		oracle = fleet.BackendOracle(cluster.NewHTTPBackend(strings.TrimRight(*serveURL, "/"), nil))
	}

	ctl, err := fleet.NewController(fleet.Config{
		Devices:   devs,
		Oracle:    oracle,
		Policy:    policy,
		PowerCapW: *capW,
		AmbientC:  *ambient,
		TickS:     *tick,
		HorizonS:  *horizon,
	})
	if err != nil {
		fatal(err)
	}
	defer ctl.Close()

	// Resume BEFORE opening the WAL for append: -resume and -wal may
	// name the same file, and the journal must be read in full before
	// new admissions extend it.
	if *resumePath != "" {
		jobs, err := fleet.ReadWAL(*resumePath)
		if err != nil {
			fatal(err)
		}
		if err := ctl.Resume(context.Background(), jobs); err != nil {
			fatal(err)
		}
		log.Printf("fleetctl: resumed %d jobs from %s", len(jobs), *resumePath)
	}
	if *walPath != "" {
		wal, err := fleet.OpenWAL(*walPath)
		if err != nil {
			fatal(err)
		}
		defer wal.Close()
		ctl.AttachJournal(wal)
		log.Printf("fleetctl: journaling admissions to %s", *walPath)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           ctl.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      1 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	log.Printf("fleetctl: listening on %s (%d devices, policy %s, cap %.0fW)",
		*addr, len(devs), policy.Name(), *capW)

	select {
	case sig := <-stop:
		log.Printf("fleetctl: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("fleetctl: shutdown: %v", err)
		}
	case err := <-errCh:
		if err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "fleetctl: %v\n", err)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fleetctl: %v\n", err)
	os.Exit(1)
}

// fatalUsage reports a flag error together with the usage text, exiting
// with the conventional flag-error status 2.
func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "fleetctl: %v\n\n", err)
	flag.Usage()
	os.Exit(2)
}
