package main

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// stackConfig declares the storage stack a workload runs on: the
// region-managed NoFTL stack (sequential log region plus page-mapped
// data region) with the priority command scheduler and background GC.
type stackConfig struct {
	Dies, MB      int
	Frames        int
	ScanResistant bool
	Prefetch      int // Engine.Scan read-ahead window in pages (0: off)
}

func (c stackConfig) device() flash.Config {
	d := flash.EmulatorConfig(c.Dies, c.MB, nand.SLC)
	d.Nand.StoreData = true
	return d
}

func (c stackConfig) engine() storage.EngineConfig {
	return storage.EngineConfig{
		BufferFrames:   c.Frames,
		ScanResistant:  c.ScanResistant,
		PrefetchWindow: c.Prefetch,
	}
}

// layout is the region layout system.BuildWithOpts uses for the
// region-managed stack: one log die (two on 16+ dies) and the rest data.
func (c stackConfig) layout() region.Layout {
	logDies := 1
	if c.Dies >= 16 {
		logDies = 2
	}
	return region.DefaultDBLayout(logDies)
}

// stack is a mounted engine with handles on every layer the benchmark
// reads counters from.
type stack struct {
	cfg    stackConfig
	k      *sim.Kernel
	dev    *flash.Device
	sch    *sched.Scheduler
	data   *noftl.Volume
	ftl    func() ftl.Stats // flash-management counters over all regions
	eng    *storage.Engine
	layout region.Layout
}

// buildStack assembles the stack from the layers' public constructors,
// mirroring system.BuildWithOpts for the region-managed stack. With a
// probe, the engine's data volume and log are wrapped so the probe
// sees every call into them.
func buildStack(cfg stackConfig, pr *probe) (*stack, error) {
	dev := flash.New(cfg.device())
	k := sim.New()
	sch := sched.New(k, dev, sched.Config{Policy: sched.Priority})
	lay := cfg.layout()
	lay.Scheduler = sch
	for i := range lay.Regions {
		if lay.Regions[i].Mapping == region.PageMapped {
			lay.Regions[i].BackgroundGC = true
		}
	}
	m, err := region.New(dev, lay)
	if err != nil {
		return nil, err
	}
	dataRegion, walRegion, err := m.Mount()
	if err != nil {
		return nil, err
	}
	nv := storage.NewNoFTLVolume(dataRegion.Vol)
	var vol storage.Volume = nv
	var log storage.AppendLog = storage.NewFlashLog(walRegion.Log)
	if pr != nil {
		vol = pr.wrapVolume(nv)
		log = pr.wrapLog(log)
	}
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	if err := storage.FormatFlashLog(ctx, vol, log); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	e, err := storage.OpenFlashLog(ctx, vol, log, cfg.engine())
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return &stack{cfg: cfg, k: k, dev: dev, sch: sch, data: dataRegion.Vol,
		ftl: m.Stats, eng: e, layout: lay}, nil
}

// restart discards every host-side structure of the stack and mounts
// the database again from the device alone: region.Rebuild rescans the
// flash, then OpenFlashLog runs ARIES recovery. The kernel must have
// been shut down, so no command is in flight. It returns the recovered
// engine, a serial context positioned after recovery, and the simulated
// restart time.
func (s *stack) restart() (*storage.Engine, *storage.IOCtx, sim.Time, error) {
	lay := s.layout
	lay.Scheduler = nil
	cw := &sim.ClockWaiter{T: s.k.Now()}
	t0 := cw.T
	ctx := storage.NewIOCtx(cw)
	m, err := region.Rebuild(s.dev, lay, ctx.Req())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("restart: rebuild: %w", err)
	}
	dataRegion, walRegion, err := m.Mount()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("restart: mount: %w", err)
	}
	e, err := storage.OpenFlashLog(ctx, storage.NewNoFTLVolume(dataRegion.Vol),
		storage.NewFlashLog(walRegion.Log), s.cfg.engine())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("restart: recovery: %w", err)
	}
	return e, ctx, cw.T - t0, nil
}
