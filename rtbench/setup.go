package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/prune"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
)

const (
	bundleVersion = 5
	modelName     = "paper"
)

// deployment is the servable result of set-up: the pruned model (the
// oracle's and the packed probe's weights), its scheme, the v5 bundle on
// disk, and a registry serving it.
type deployment struct {
	model  *nn.Model
	scheme prune.BSP
	bundle string
	reg    *registry.Registry
	lease  *registry.Lease
	// Per-stage set-up times, one entry per repetition.
	pruneS, compileS, saveS, loadS, totalS []float64
	bundleBytes                            int64
}

// engine is the registry-loaded engine every workload drives.
func (d *deployment) engine() *rtmobile.Engine { return d.lease.Engine() }

func (d *deployment) close() {
	if d.lease != nil {
		d.lease.Release()
	}
	if d.reg != nil {
		d.reg.Close(context.Background())
	}
}

// newRegistry builds a registry with the serve CLI's loader and
// scheduler defaults.
func newRegistry() (*registry.Registry, error) {
	return registry.New(registry.Config{
		Loader: registry.BundleLoader(deployConfig().Target),
		Sched:  schedConfig(),
	})
}

// deploy runs set-up cfg.SetupReps times: from a fresh copy of the seeded
// model, prune, compile, save the v5 bundle and register it the way serve
// loads it. The last repetition's registry stays open for the workload.
func deploy(cfg config, dir string, rec *recorder) (_ *deployment, err error) {
	base := nn.NewGRUModel(cfg.Spec)
	d := &deployment{bundle: filepath.Join(dir, "model.rtmb")}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	for rep := 0; rep < cfg.SetupReps; rep++ {
		d.close()
		d.reg, d.lease = nil, nil
		model := base.Clone()
		runtime.GC() // start every repetition from the same heap state

		root := rec.begin("setup", -1)
		t0 := time.Now()
		res := rtmobile.Prune(model, nil, pruneConfig())
		t1 := rec.end("Prune", root, t0)
		eng, err := rtmobile.Compile(model, res.Scheme, deployConfig())
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		t2 := rec.end("Compile", root, t1)
		if err := saveBundle(eng, res.Scheme, d.bundle); err != nil {
			return nil, err
		}
		t3 := rec.end("SaveBundleVersion", root, t2)
		reg, err := newRegistry()
		if err != nil {
			return nil, err
		}
		if err := reg.Register(modelName, d.bundle); err != nil {
			reg.Close(context.Background())
			return nil, fmt.Errorf("register: %w", err)
		}
		t4 := rec.end("Register", root, t3)
		rec.finish(root, t0, t4)

		d.pruneS = append(d.pruneS, t1.Sub(t0).Seconds())
		d.compileS = append(d.compileS, t2.Sub(t1).Seconds())
		d.saveS = append(d.saveS, t3.Sub(t2).Seconds())
		d.loadS = append(d.loadS, t4.Sub(t3).Seconds())
		d.totalS = append(d.totalS, t4.Sub(t0).Seconds())
		d.model, d.scheme, d.reg = model, res.Scheme, reg
		if d.lease, err = reg.Acquire(modelName); err != nil {
			return nil, err
		}
	}
	st, err := os.Stat(d.bundle)
	if err != nil {
		return nil, err
	}
	d.bundleBytes = st.Size()
	return d, nil
}

func saveBundle(eng *rtmobile.Engine, scheme prune.BSP, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := eng.SaveBundleVersion(w, scheme, bundleVersion); err != nil {
		f.Close()
		return fmt.Errorf("save bundle: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRegistry registers the deployment's bundle in a fresh registry
// and turns its engine's stage tracer on before any inference.
func tracedRegistry(d *deployment) (*registry.Registry, *obs.Tracer, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, nil, err
	}
	if err := reg.Register(modelName, d.bundle); err != nil {
		reg.Close(context.Background())
		return nil, nil, err
	}
	l, err := reg.Acquire(modelName)
	if err != nil {
		reg.Close(context.Background())
		return nil, nil, err
	}
	defer l.Release()
	return reg, l.Engine().EnableTracing(traceRing), nil
}
