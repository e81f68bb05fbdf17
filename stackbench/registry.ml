(* The benchmark's workloads and metrics. `main.exe --list` prints this
   table and the self-test checks it against BENCHMARK.json, so the names
   in the JSON description and in the results cannot drift apart.

   Every workload is a grid of rfd-svc/1 query specs (seed-major, pulse
   counts inner, the order of [Sweep.plan]); the grid is elaborated by
   [Protocol.scenario_of_spec], the same path the daemon takes, so the sim
   workloads and the served one run identical scenarios. *)

module Protocol = Rfd.Svc_protocol

type shape =
  | Single  (** one [Runner.run] per repetition *)
  | Sweep  (** [Sweep.plan] + [Sweep.execute ~jobs:2] per repetition *)
  | Serve  (** a fresh rfd-simd daemon fed a Zipf query stream *)

type workload = {
  name : string;
  why : string;
  shape : shape;
  base : Protocol.spec;
  pulses : int list;
  seeds : int -> int list;  (** grid seeds from the --seed value *)
}

let one_to_ten = List.init 10 (fun i -> i + 1)

(* [count] consecutive seeds, disjoint for distinct --seed values. *)
let seed_block count seed = List.init count (fun k -> (seed * count) + k)

let background = 10_000
let flappers = 200

(* The Serve workload: 1000 queries over its 30 specs on two connections.
   Each key misses once (about 240 ms each on a 2-core host, so a
   repetition takes about 4 s) and the 30-key working set overflows the
   20-entry cache, so the tail of the hits re-reads the journal. *)
let stream_length = 1_000
let zipf_s = 1.0
let serve_connections = 2
let serve_cache = 20

let workloads =
  [
    {
      name = "ba10k-flap";
      why =
        "10,000-node BA graph, one flapping origin, Cisco damping everywhere: event heap, \
         transport, decision process and interning across many routers";
      shape = Single;
      base =
        {
          Protocol.default_spec with
          Protocol.topology = Protocol.Internet { nodes = 10_000; m = 2 };
          table_hint = 2;
        };
      pulses = [ 3 ];
      seeds = seed_block 1;
    };
    {
      name = "prefix-churn";
      why =
        "3x3 mesh with 10,000 background prefixes and 200 Pareto flappers: few routers, \
         many prefixes, so prefix tables, per-prefix MRAI and damper state do the work";
      shape = Single;
      base =
        {
          Protocol.default_spec with
          Protocol.topology = Protocol.Mesh { rows = 3; cols = 3 };
          background;
          flappers;
          flaps = 3;
          flap_gap = 60.;
          flap_alpha = 1.5;
          table_hint = background + flappers + 1;
        };
      pulses = [ 3 ];
      seeds = seed_block 1;
    };
    {
      name = "seed-sweep";
      why =
        "Figure 8 damped 10x10 mesh, pulses 1..10 x 20 seeds through Sweep.execute at 2 \
         jobs: short damping-heavy runs where pool overhead and GC matter";
      shape = Sweep;
      base = Protocol.default_spec;
      pulses = one_to_ten;
      seeds = seed_block 20;
    };
    {
      name = "svc-zipf";
      why =
        "rfd-simd daemon, 2 closed-loop connections, 1000 Zipf(1.0) queries over 30 mesh \
         specs: ~30 misses, hits overflow the 20-entry cache into journal reads";
      shape = Serve;
      base = Protocol.default_spec;
      pulses = one_to_ten;
      seeds = seed_block 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The flap seed of a multi-origin workload follows --seed too, so the
   whole input changes with it. *)
let base_for w ~seed =
  if w.base.Protocol.flappers > 0 then { w.base with Protocol.flap_seed = seed } else w.base

let specs w ~seed =
  let base = base_for w ~seed in
  List.concat_map
    (fun s -> List.map (fun p -> { base with Protocol.seed = s; pulses = p }) w.pulses)
    (w.seeds seed)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let e name unit_ better bound = { name; unit_; better; bound = Some bound }
let l name unit_ better = { name; unit_; better; bound = None }

(* Reported by every workload with --trace 0. Only metrics whose medians
   stay within their bound across two back-to-back sets of seeded runs on
   the reference host are here; the set-up bound is the largest allowed. *)
let end_to_end = [ e "setup_s" "s" Lower 0.25; e "peak_rss_mb" "MB" Lower 0.10 ]

(* Reported by every workload with --trace 1. The first two are the
   throughputs demoted from end-to-end because they drift with the host
   (see README.md). *)
let per_layer =
  [
    l "answers_per_s" "1/s" Higher;
    l "events_per_s" "events/s" Higher;
    l "topology.build_ms" "ms" Lower;
    l "sweep.plan_ms" "ms" Lower;
    l "runner.run_ms" "ms" Lower;
    l "runner.converge_ms" "ms" Lower;
    l "runner.converge_events" "count" Lower;
    l "runner.flap_ms" "ms" Lower;
    l "runner.flap_events" "count" Lower;
    l "sim.peak_heap" "count" Lower;
    l "sim.compactions" "count" Lower;
    l "network.deliveries" "count" Lower;
    l "network.sends" "count" Lower;
    l "router.best_changes" "count" Lower;
    l "router.useful_decision_ratio" "ratio" Higher;
    l "router.mrai_queued" "count" Lower;
    l "router.mrai_superseded_ratio" "ratio" Lower;
    l "damper.charges" "count" Lower;
    l "damper.suppressions" "count" Lower;
    l "damper.reuses" "count" Lower;
    l "damper.noisy_reuse_ratio" "ratio" Lower;
    l "damper.reuse_timer_events" "count" Lower;
    l "route.interned" "count" Lower;
    l "as_path.interned" "count" Lower;
    l "gc.minor_words_per_event" "words/event" Lower;
    l "gc.promoted_words_per_event" "words/event" Lower;
    l "gc.major_collections" "count" Lower;
    l "pool.worker_util" "ratio" Higher;
    l "pool.run_p50_ms" "ms" Lower;
    l "pool.scaling_eff" "ratio" Higher;
    l "client.ping_rtt_us" "us" Lower;
    l "protocol.parse_us" "us" Lower;
    l "protocol.elaborate_us" "us" Lower;
    l "sweep.materialize_us" "us" Lower;
    l "journal.key_us" "us" Lower;
    l "store.find_us" "us" Lower;
    l "store.put_ms" "ms" Lower;
    l "protocol.render_us" "us" Lower;
    l "protocol.body_bytes" "bytes" Lower;
    l "journal.line_bytes" "bytes" Lower;
    l "store.disk_read_ratio" "ratio" Lower;
    l "server.hit_p50_ms" "ms" Lower;
    l "server.miss_p50_ms" "ms" Lower;
    l "server.miss_overhead_ms" "ms" Lower;
    l "server.coalesced" "count" Lower;
    l "server.sheds" "count" Lower;
    l "trace_overhead_pct" "%" Lower;
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let list_lines () =
  List.map (fun (w : workload) -> Printf.sprintf "workload %s: %s" w.name w.why) workloads
  @ List.map
      (fun m ->
        Printf.sprintf "end_to_end %s %s %s %g" m.name m.unit_ (better_to_string m.better)
          (Option.get m.bound))
      end_to_end
  @ List.map
      (fun m -> Printf.sprintf "per_layer %s %s %s" m.name m.unit_ (better_to_string m.better))
      per_layer
