package main

import (
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// serve starts the campaign service daemon: an HTTP job queue over the
// same deterministic campaign machinery the one-shot CLI uses. The daemon
// owns a service root directory; jobs, shard journals, merged results and
// golden images all live under it, so killing the daemon loses nothing —
// a restarted `restore-sim serve` on the same root resumes its queue.
//
// Interruption follows the CLI's two-level protocol: the first SIGINT or
// SIGTERM drains in-flight shards (journals flush, the running job is
// re-queued on disk) and stops the server; a second signal forces an
// immediate exit after flushing completed trial records.
func (c *cli) serve() error {
	if c.root == "" {
		return fmt.Errorf("serve requires -root <dir>: the service directory holding jobs, journals and golden images")
	}
	addr := c.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{
		Root:      c.root,
		MaxShards: c.maxShards,
		Workers:   c.opts.Workers,
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
	fmt.Printf("restore-sim: campaign service on http://%s (root %s)\n", bound, c.root)

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

// client resolves the daemon address: -addr wins, otherwise the daemon's
// serve.addr file under -root.
func (c *cli) client() (*service.Client, error) {
	if c.addr != "" {
		return &service.Client{Base: c.addr}, nil
	}
	if c.root == "" {
		return nil, fmt.Errorf("client subcommands need -root <dir> (to discover the daemon) or -addr <host:port>")
	}
	return service.NewClientFromRoot(c.root)
}

// submit submits one experiment as a job, reusing the campaign flags the
// one-shot CLI takes (-seed, -scale, -trials, -bench, -workers) plus
// -shards for the fan-out.
func (c *cli) submit() error {
	cl, err := c.client()
	if err != nil {
		return err
	}
	spec := service.JobSpec{
		Experiment:  c.operands[0],
		Seed:        c.opts.Seed,
		Scale:       c.opts.Scale,
		TrialFactor: c.opts.TrialFactor,
		Shards:      c.shards,
		Workers:     c.opts.Workers,
	}
	for _, b := range c.opts.Benchmarks {
		spec.Benchmarks = append(spec.Benchmarks, string(b))
	}
	j, err := cl.Submit(spec)
	if err != nil {
		return err
	}
	printJob(j)
	if !c.wait {
		fmt.Printf("follow with: restore-sim -root %s -wait status %s\n", c.root, j.ID)
		return nil
	}
	return waitForJob(cl, j.ID)
}

// status prints one job's state; with -wait it follows the job to a
// terminal state.
func (c *cli) status() error {
	cl, err := c.client()
	if err != nil {
		return err
	}
	j, err := cl.Job(c.operands[0])
	if err != nil {
		return err
	}
	printJob(j)
	if !c.wait || j.State.Terminal() {
		return jobExitErr(j)
	}
	return waitForJob(cl, c.operands[0])
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

func (c *cli) cancel() error {
	cl, err := c.client()
	if err != nil {
		return err
	}
	j, err := cl.Cancel(c.operands[0])
	if err != nil {
		return err
	}
	printJob(j)
	return nil
}

func (c *cli) jobs() error {
	cl, err := c.client()
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
