package main

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// runServe starts the campaign service daemon: an HTTP job queue over the
// same deterministic campaign machinery the one-shot CLI uses. The daemon
// owns a service root directory; jobs, shard journals, merged results and
// golden images all live under it, so killing the daemon loses nothing —
// a restarted `restore-sim serve` on the same root resumes its queue.
//
// Interruption follows the CLI's two-level protocol: the first SIGINT or
// SIGTERM drains in-flight shards (journals flush, the running job is
// re-queued on disk) and stops the server; a second signal forces an
// immediate exit after flushing completed trial records.
func runServe(root, addr string, maxShards, workers int) error {
	if root == "" {
		return fmt.Errorf("serve requires -root <dir>: the service directory holding jobs, journals and golden images")
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{
		Root:      root,
		MaxShards: maxShards,
		Workers:   workers,
		Obs:       reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "restore-sim: serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	srv := service.NewServer(svc)
	bound, err := srv.Start(addr)
	if err != nil {
		svc.Close()
		return err
	}
	fmt.Printf("restore-sim: campaign service on http://%s (root %s)\n", bound, root)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	stopped := make(chan error, 1)
	go watchInterrupts(sigc, func() {
		// Shutdown drains the running job's shards; run it off the watcher
		// goroutine so a second signal can still force an exit mid-drain.
		go func() { stopped <- srv.Shutdown() }()
	}, forceExit)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Wait() }()
	select {
	case err := <-stopped:
		fmt.Fprintln(os.Stderr, "restore-sim: serve: stopped; queued jobs resume on the next `restore-sim serve`")
		return err
	case err := <-serveErr:
		// The listener died underneath us; wind the service down cleanly.
		_ = srv.Shutdown()
		return err
	}
}

// serviceClient resolves the daemon address: -addr wins, otherwise the
// daemon's serve.addr file under -root.
func serviceClient(root, addr string) (*service.Client, error) {
	if addr != "" {
		return &service.Client{Base: addr}, nil
	}
	if root == "" {
		return nil, fmt.Errorf("client subcommands need -root <dir> (to discover the daemon) or -addr <host:port>")
	}
	return service.NewClientFromRoot(root)
}

// runSubmit submits one experiment as a job, reusing the campaign flags the
// one-shot CLI takes (-seed, -scale, -trials, -bench, -workers) plus
// -shards for the fan-out.
func runSubmit(root, addr, experiment, benches string, seed int64, scale, trials float64,
	shards, workers int, wait bool) error {
	cl, err := serviceClient(root, addr)
	if err != nil {
		return err
	}
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	spec := service.JobSpec{
		Experiment:  experiment,
		Seed:        seed,
		Scale:       scale,
		TrialFactor: trials,
		Shards:      shards,
		Workers:     workers,
	}
	if benches != "" {
		for _, name := range strings.Split(benches, ",") {
			spec.Benchmarks = append(spec.Benchmarks, strings.TrimSpace(name))
		}
	}
	j, err := cl.Submit(spec)
	if err != nil {
		return err
	}
	printJob(j)
	if !wait {
		fmt.Printf("follow with: restore-sim -root %s -wait status %s\n", root, j.ID)
		return nil
	}
	return waitForJob(cl, j.ID)
}

// runStatus prints one job's state; with -wait it follows the job to a
// terminal state.
func runStatus(root, addr, id string, wait bool) error {
	cl, err := serviceClient(root, addr)
	if err != nil {
		return err
	}
	j, err := cl.Job(id)
	if err != nil {
		return err
	}
	printJob(j)
	if !wait || j.State.Terminal() {
		return jobExitErr(j)
	}
	return waitForJob(cl, id)
}

func waitForJob(cl *service.Client, id string) error {
	j, err := cl.Wait(id, 500*time.Millisecond, func(j *service.Job) {
		fmt.Fprintf(os.Stderr, "\r%s: %s (%d trials done)      ", j.ID, j.State, j.TrialsDone)
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	printJob(j)
	return jobExitErr(j)
}

// jobExitErr maps a terminal job onto the process exit status: failed jobs
// fail the client invocation too.
func jobExitErr(j *service.Job) error {
	if j.State == service.StateFailed {
		return fmt.Errorf("job %s failed: %s", j.ID, j.Error)
	}
	return nil
}

func runCancel(root, addr, id string) error {
	cl, err := serviceClient(root, addr)
	if err != nil {
		return err
	}
	j, err := cl.Cancel(id)
	if err != nil {
		return err
	}
	printJob(j)
	return nil
}

func runJobs(root, addr string) error {
	cl, err := serviceClient(root, addr)
	if err != nil {
		return err
	}
	jobs, err := cl.Jobs()
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-12s %-10s %-14s %7s %8s %10s\n", "job", "state", "experiment", "shards", "trials", "campaigns")
	for _, j := range jobs {
		fmt.Printf("%-12s %-10s %-14s %7d %8d %10d\n",
			j.ID, j.State, j.Spec.Experiment, j.Spec.Shards, j.TrialsDone, len(j.Campaigns))
	}
	return nil
}

// printJob renders one job's full record for the submit/status/cancel
// subcommands.
func printJob(j *service.Job) {
	fmt.Printf("%s: %s\n", j.ID, j.State)
	fmt.Printf("  experiment %s  seed %d  scale %g  trials %g  shards %d\n",
		j.Spec.Experiment, j.Spec.Seed, j.Spec.Scale, j.Spec.TrialFactor, j.Spec.Shards)
	if len(j.Spec.Benchmarks) > 0 {
		fmt.Printf("  benchmarks %s\n", strings.Join(j.Spec.Benchmarks, ","))
	} else {
		all := workload.Benchmarks()
		names := make([]string, len(all))
		for i, b := range all {
			names[i] = string(b)
		}
		fmt.Printf("  benchmarks %s (all)\n", strings.Join(names, ","))
	}
	if j.TrialsDone > 0 {
		fmt.Printf("  trials done %d (this daemon lifetime)\n", j.TrialsDone)
	}
	if j.Error != "" {
		fmt.Printf("  error %s\n", j.Error)
	}
	if len(j.Campaigns) > 0 {
		sorted := append([]string(nil), j.Campaigns...)
		sort.Strings(sorted)
		fmt.Printf("  merged campaigns: %s\n", strings.Join(sorted, ", "))
	}
}
