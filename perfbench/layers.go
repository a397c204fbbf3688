package main

import (
	"fmt"
	"io"
)

// perLayer lists the traced run's metrics in print order, with units.
var perLayer = []struct{ name, unit string }{
	{"server.handler_us", "us"},
	{"server.decode_ns_per_pt", "ns"},
	{"server.encode_us", "us"},
	{"http.wire_us", "us"},
	{"auth.authenticate_us", "us"},
	{"summary.insert_ns_per_pt", "ns"},
	{"summary.insert_allocs_per_batch", "count"},
	{"summary.discard_ratio", "ratio"},
	{"summary.restore_ms", "ms"},
	{"summary.restore_allocs", "count"},
	{"summary.snapshot_us", "us"},
	{"readcache.rebuild_us", "us"},
	{"readcache.rebuild_allocs", "count"},
	{"readcache.hit_ratio", "ratio"},
	{"store.append_us", "us"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoints_per_op", "count"},
	{"store.load_ms", "ms"},
	{"store.open_us", "us"},
	{"store.create_us", "us"},
	{"store.bytes_per_pt", "B"},
	{"coldtier.rehydrations_per_op", "count"},
	{"coldtier.evictions_per_op", "count"},
	{"coldtier.rehydrate_ms", "ms"},
	{"fanin.merge_ms", "ms"},
	{"fanin.merge_allocs", "count"},
	{"fanin.apply_us", "us"},
	{"fanin.encode_us", "us"},
	{"fanin.bytes_per_push", "B"},
	{"fanin.delta_share", "ratio"},
	{"hullserver.gc_cpu_frac", "ratio"},
	{"hullserver.heap_mb", "MiB"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
}

// runTraced is the traced run: an untraced pass against hullserver for
// its own counters, a traced pass against an in-process server for the
// span timings, then the replays of what the traced pass recorded.
func runTraced(cfg config, w workloadDef, sc scenario, warm int, out io.Writer) (*result, error) {
	measured := sc.ops() - warm
	cp, err := countersPass(cfg, w, sc, warm)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tp, err := tracedPass(cfg, w, sc, warm)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	v := make(map[string]float64)
	ops := float64(measured)

	rows := layerTable(tp.spans, "measured")
	row := func(name string) layerRow {
		for _, r := range rows {
			if r.Name == name {
				return r
			}
		}
		return layerRow{Name: name}
	}
	v["server.handler_us"] = row("server.ServeHTTP").MeanSelfUs
	v["http.wire_us"] = row("http.client").MeanSelfUs
	v["auth.authenticate_us"] = row("auth.Authenticate").MeanBusyUs
	v["store.append_us"] = row("store.Append").MeanBusyUs
	v["store.checkpoint_ms"] = row("store.Checkpoint").MeanBusyUs / 1e3
	v["store.checkpoints_per_op"] = float64(row("store.Checkpoint").Count) / ops
	v["store.load_ms"] = row("store.Load").MeanBusyUs / 1e3
	v["store.open_us"] = row("store.Open").MeanBusyUs
	for _, r := range layerTable(tp.spans, "setup") {
		if r.Name == "store.Create" {
			v["store.create_us"] = r.MeanBusyUs
		}
	}
	v["trace.traced_ops_per_s"] = tp.phase.opsPerSec()
	v["trace.untraced_ops_per_s"] = cp.phase.opsPerSec()

	var bodies [][]byte
	for i := warm; i < sc.ops(); i++ {
		if b := postBody(sc, i); b != nil {
			bodies = append(bodies, b)
		}
	}
	v["server.decode_ns_per_pt"] = replayDecode(bodies)
	v["server.encode_us"] = replayEncode(tp.phase.readBods)

	var curves []kernelPoint
	if tp.store != nil {
		ins := replayInsert(tp.store.batches, r)
		v["summary.insert_ns_per_pt"] = ins.nsPerPt
		v["summary.insert_allocs_per_batch"] = ins.allocsPerBatch
		v["summary.discard_ratio"] = ins.discardRatio
		var mc []recordedCheckpoint
		for _, c := range tp.store.ckpts {
			if c.phase == "measured" {
				mc = append(mc, c)
			}
		}
		rr, err := replayRestore(mc, r, len(tp.phase.reads) > 0)
		if err != nil {
			return nil, err
		}
		v["summary.restore_ms"] = rr.restoreMs
		v["summary.restore_allocs"] = rr.restoreAllocs
		v["summary.snapshot_us"] = rr.snapshotUs
		v["readcache.rebuild_us"] = rr.rebuildUs
		v["readcache.rebuild_allocs"] = rr.rebuildAllocs
		if w.name == "ingest" {
			if curves, err = kernelCurves(tp.store.batches, 65536); err != nil {
				return nil, err
			}
		}
	}
	if as, ok := sc.(*aggScenario); ok {
		fr, err := replayFanIn(as, measured)
		if err != nil {
			return nil, err
		}
		v["fanin.encode_us"] = fr.encodeUs
		v["fanin.apply_us"] = fr.applyUs
		v["fanin.merge_ms"] = fr.mergeMs
		v["fanin.merge_allocs"] = fr.mergeAllocs
		v["readcache.rebuild_us"] = fr.rebuildUs
		v["readcache.rebuild_allocs"] = fr.rebuildAllocs
		if pc := cp.pushers; pc.pushes > 0 {
			v["fanin.bytes_per_push"] = pc.bytes / pc.pushes
			v["fanin.delta_share"] = pc.deltas / pc.pushes
		}
	}

	// Counters of the untraced hullserver process.
	reads, rebuilds := cp.metrics["streamhull_querycache_reads_total"], cp.metrics["streamhull_querycache_rebuilds_total"]
	if reads <= 0 {
		reads, rebuilds = cp.after["streamhull_querycache_reads_total"], cp.after["streamhull_querycache_rebuilds_total"]
	}
	if reads > 0 {
		v["readcache.hit_ratio"] = (reads - rebuilds) / reads
	}
	if cp.phase.points > 0 {
		v["store.bytes_per_pt"] = cp.wchar / float64(cp.phase.points)
	}
	v["coldtier.rehydrations_per_op"] = cp.metrics["streamhull_store_rehydrations_total"] / ops
	v["coldtier.evictions_per_op"] = cp.metrics["streamhull_store_evictions_total"] / ops
	if n := cp.metrics["streamhull_store_rehydrate_seconds_count"]; n > 0 {
		v["coldtier.rehydrate_ms"] = cp.metrics["streamhull_store_rehydrate_seconds_sum"] / n * 1e3
	}
	v["hullserver.gc_cpu_frac"] = cp.gcCPUFrac
	v["hullserver.heap_mb"] = cp.heapMB

	wrong := append(append([]string(nil), cp.wrong...), tp.wrong...)
	failed := cp.client.failed + tp.client.failed
	res := &result{
		Correct:   failed == 0 && len(wrong) == 0,
		Attempted: cp.client.attempted + tp.client.attempted,
		Failed:    failed + len(wrong),
		Metrics:   make(map[string]metric, len(perLayer)),
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	printTraced(out, w, cp, tp, rows, curves, res, append(cp.client.failures, tp.client.failures...), wrong)
	return res, nil
}

// postBody returns the points body operation i sends, or nil.
func postBody(sc scenario, i int) []byte {
	switch s := sc.(type) {
	case *ingestScenario:
		return s.bodies[i]
	case *coldScenario:
		return s.bodies[i]
	}
	return nil
}

func printTraced(out io.Writer, w workloadDef, cp *countersResult, tp *tracedResult, rows []layerRow,
	curves []kernelPoint, res *result, failures, wrong []string) {
	fmt.Fprintf(out, "traced %s: %d measured ops; attempted %d, failed %d\n",
		w.name, tp.phase.ops, res.Attempted, res.Failed)
	fmt.Fprintf(out, "  ops_per_s traced (in-process, decorated) %.1f vs untraced (hullserver process) %.1f: traced/untraced %.3f\n",
		tp.phase.opsPerSec(), cp.phase.opsPerSec(), tp.phase.opsPerSec()/cp.phase.opsPerSec())
	fmt.Fprintf(out, "  err_rel untraced %.6f traced %.6f\n", cp.errRel, tp.errRel)
	fmt.Fprintf(out, "  %-20s %8s %12s %12s %12s %12s\n", "span (measured)", "count", "busy_ms", "self_ms", "mean_us", "mean_self_us")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-20s %8d %12.2f %12.2f %12.2f %12.2f\n", r.Name, r.Count,
			float64(r.Busy.Microseconds())/1e3, float64(r.Self.Microseconds())/1e3, r.MeanBusyUs, r.MeanSelfUs)
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if len(curves) > 0 {
		fmt.Fprintln(out, "  kernel curves on ingest's logged batches (one stream; §5 predicts insert ~ log r):")
		for _, k := range curves {
			fmt.Fprintf(out, "    r=%-5d insert %8.1f ns/pt   restore %9.3f ms (%d checkpoints)\n",
				k.r, k.nsPerPt, k.restoreMs, k.restores)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(out, "  failed:", f)
	}
	for i, wr := range wrong {
		if i == 8 {
			fmt.Fprintf(out, "  ... %d more wrong answers\n", len(wrong)-i)
			break
		}
		fmt.Fprintln(out, "  wrong:", wr)
	}
}
