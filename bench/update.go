package main

import (
	"encoding/json"
	"fmt"
	"os"

	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/service"
	"grover/internal/vm"
)

// updateGolden regenerates golden.json from the pinned engine and refuses
// to write it unless the interpreter — the independent reference — yields
// the same statistics on the probe set on all six devices.
func updateGolden(path string) error {
	g := &goldenFile{
		Note: "simulated statistics and verdicts every benchmark op must reproduce; " +
			"regenerate with `go run -C bench . -update-golden`, never by hand",
		Cells:    map[string]cellGolden{},
		Tunes:    map[string]tuneResult{},
		Frontend: map[string]frontGolden{},
	}
	// Sweep cells: every app on every device, through the layered replay;
	// untraced runs then check harness.RunCase against the same numbers.
	t := newTracer()
	for _, app := range apps.All() {
		for _, prof := range device.All() {
			fmt.Fprintf(os.Stderr, "cell %s/%s\n", app.ID, prof.Name)
			c, err := goldenCell(t, app, prof.Name)
			if err != nil {
				return fmt.Errorf("cell %s/%s: %w", app.ID, prof.Name, err)
			}
			g.Cells[cellKey(app.ID, prof.Name)] = c
		}
	}
	// The oracle: the same cells of the probe set on the interpreter.
	oracle := map[string]cellGolden{}
	ti := newTracer()
	ti.engine = vm.BackendInterp
	for _, app := range appsByID(probeApps) {
		for _, prof := range device.All() {
			fmt.Fprintf(os.Stderr, "oracle %s/%s\n", app.ID, prof.Name)
			c, err := goldenCell(ti, app, prof.Name)
			if err != nil {
				return fmt.Errorf("oracle %s/%s: %w", app.ID, prof.Name, err)
			}
			key := cellKey(app.ID, prof.Name)
			if digest(c) != digest(g.Cells[key]) {
				return fmt.Errorf("%s: %s disagrees with the interpreter oracle:\n%s\n%s",
					key, backend, mustJSON(g.Cells[key]), mustJSON(c))
			}
			oracle[key] = c
		}
	}
	g.Oracle = digest(oracle)

	// Plan searches and front-end answers come from the service itself.
	if err := goldenTunes(g); err != nil {
		return err
	}
	if err := goldenFrontend(g); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func goldenCell(t *tracer, app *apps.App, dev string) (cellGolden, error) {
	root := t.rec.root(0, "harness.cell")
	res, _, err := t.cellSteps(root, app, dev)
	root.end()
	return cellGolden{WithLM: res.withLM, WithoutLM: res.withoutLM,
		Verdict: res.verdict, Applied: res.applied}, err
}

func goldenTunes(g *goldenFile) error {
	ks, err := specsFor(tuneApps)
	if err != nil {
		return err
	}
	srv := newServer()
	defer srv.Close()
	for _, k := range ks {
		fmt.Fprintf(os.Stderr, "tune %s\n", k.app.ID)
		code, body, _ := call(srv, "POST", "/v1/autotune", tuneBody(k, 0))
		var resp service.AutotuneResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return fmt.Errorf("tune %s: %w", k.app.ID, err)
		}
		for _, r := range resp.Results {
			if r.Error != "" {
				return fmt.Errorf("tune %s on %s: %s", k.app.ID, r.Device, r.Error)
			}
			g.Tunes[cellKey(k.app.ID, r.Device)] = tuneResultOf(r)
		}
	}
	return nil
}

func goldenFrontend(g *goldenFile) error {
	w := &frontendWorkload{g: g, apps: allApps}
	var err error
	if w.specs, err = specsFor(allApps); err != nil {
		return err
	}
	w.srv = newServer()
	defer w.close()
	for _, k := range w.specs {
		fmt.Fprintf(os.Stderr, "front end %s\n", k.app.ID)
		endpoints := []string{"compile", "lint", "transform", "transform-plan"}
		if autotuneDevice(k) != "" {
			endpoints = append(endpoints, "autotune")
		}
		var merged frontGolden
		for _, ep := range endpoints {
			r := frontendRequest(ep, k, 0, "cold")
			code, body, _ := call(w.srv, "POST", r.path, r.body)
			got, _, err := frontendAnswer(ep, code, body)
			if err != nil {
				return fmt.Errorf("%s %s: %w", ep, k.app.ID, err)
			}
			merged.merge(ep, got)
		}
		g.Frontend[k.app.ID] = merged
	}
	return nil
}
