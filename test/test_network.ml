(* Network-level protocol tests: propagation, decision process, loop
   prevention, MRAI, link failures. Deterministic config: no MRAI unless a
   test enables it, fixed link delay, no jitter. *)

open Rfd_bgp
module Sim = Rfd_engine.Sim
module Column = Rfd_engine.Column
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders
module Graph = Rfd_topology.Graph

let p0 = Prefix.v 0

let fast_config =
  {
    Config.default with
    Config.mrai = 0.;
    link_delay = 0.01;
    link_jitter = 0.;
    mrai_jitter = (1.0, 1.0);
  }

let make ?(config = fast_config) ?policy graph = Fixture.create ?policy ~config graph

let path_of net node prefix =
  match Router.best (Par_net.router net node) prefix with
  | Some route -> Some (As_path.to_list (Route.path route))
  | None -> None

let test_line_propagation () =
  let net = make (Builders.line 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check (option (list int))) "self route empty path" (Some []) (path_of net 0 p0);
  Alcotest.(check (option (list int))) "one hop" (Some [ 0 ]) (path_of net 1 p0);
  Alcotest.(check (option (list int))) "two hops" (Some [ 1; 0 ]) (path_of net 2 p0);
  Alcotest.(check (option (list int))) "three hops" (Some [ 2; 1; 0 ]) (path_of net 3 p0);
  Alcotest.(check int) "all reachable" 4 (Par_net.reachable_count net p0);
  Alcotest.(check bool) "converged" true (Par_net.converged net p0)

let test_withdrawal_propagation () =
  let net = make (Builders.line 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Par_net.withdraw net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check int) "no route anywhere" 0 (Par_net.reachable_count net p0);
  Alcotest.(check bool) "converged empty" true (Par_net.converged net p0)

let test_shortest_path_selection () =
  (* 0 - 1 - 3 and 0 - 2 - 3 plus direct 0 - 3: node 3 must use the direct
     link; drop it and 3 must use a 2-hop path. *)
  let g = Graph.of_edges ~num_nodes:4 [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 3) ] in
  let net = make g in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check (option (list int))) "direct" (Some [ 0 ]) (path_of net 3 p0);
  Fixture.fail_link net 0 3;
  Fixture.run net;
  (* both 2-hop paths tie on length; lowest peer id (1) wins *)
  Alcotest.(check (option (list int))) "reroute via 1" (Some [ 1; 0 ]) (path_of net 3 p0)

let test_ring_convergence_no_loops () =
  let net = make (Builders.ring 6) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  for node = 0 to 5 do
    match Router.best (Par_net.router net node) p0 with
    | None -> Alcotest.failf "node %d unreachable" node
    | Some route ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d path loop-free" node)
          false
          (As_path.contains (Route.path route) node);
        Alcotest.(check bool)
          (Printf.sprintf "node %d shortest on ring" node)
          true
          (Route.path_length route <= 3)
  done

let test_path_exploration_on_withdrawal () =
  (* Figure 1 shape: X (node 3) reaches origin (0) via three parallel
     2-hop paths through 1, 2, 4; Y (node 5) hangs off X. After the origin
     withdraws, Y observes multiple updates even though only one flap
     happened (the paper's amplification). *)
  let g =
    Graph.of_edges ~num_nodes:6 [ (0, 1); (0, 2); (0, 4); (1, 3); (2, 3); (4, 3); (3, 5) ]
  in
  (* tiny MRAI so exploration is serialised but fast *)
  let config = { fast_config with Config.mrai = 0.5 } in
  let net = make ~config g in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let to_y = ref 0 in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time:_ ~src ~dst _ -> if src = 3 && dst = 5 then incr to_y);
  Par_net.schedule_withdraw net ~at:(Par_net.now net +. 1.) ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "Y saw several updates for one flap" true (!to_y >= 2);
  Alcotest.(check int) "finally unreachable" 0 (Par_net.reachable_count net p0)

let test_mrai_rate_limits () =
  let count_updates mrai =
    let config = { fast_config with Config.mrai } in
    let net = make ~config (Builders.line 3) in
    Par_net.originate net ~node:0 p0;
    Fixture.run net;
    let n = ref 0 in
    (Par_net.bus net).Hooks.on_deliver <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr n);
    (* rapid flapping: 6 events 0.1 s apart *)
    for i = 0 to 2 do
      let base = Par_net.now net +. 1. +. (0.2 *. float_of_int i) in
      Par_net.schedule_withdraw net ~at:base ~node:0 p0;
      Par_net.schedule_originate net ~at:(base +. 0.1) ~node:0 p0
    done;
    Fixture.run net;
    (!n, Par_net.reachable_count net p0)
  in
  let without, reach0 = count_updates 0. in
  let with_mrai, reach1 = count_updates 10. in
  Alcotest.(check bool) "MRAI reduces updates" true (with_mrai < without);
  Alcotest.(check int) "final state correct without" 3 reach0;
  Alcotest.(check int) "final state correct with" 3 reach1

let test_mrai_flush_delivers_final_state () =
  (* With a large MRAI, an announce-withdraw-announce burst must still end
     with every router holding the route (the pending update wins). *)
  let config = { fast_config with Config.mrai = 5. } in
  let net = make ~config (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let base = Par_net.now net +. 0.5 in
  Par_net.schedule_withdraw net ~at:base ~node:0 p0;
  Par_net.schedule_originate net ~at:(base +. 0.05) ~node:0 p0;
  let sim = Fixture.sim net in
  Sim.post sim (Sim.channel sim (fun _ _ -> ())) ~time:(base +. 0.1) 0;
  Fixture.run net;
  Alcotest.(check int) "all reachable after flush" 3 (Par_net.reachable_count net p0);
  Alcotest.(check bool) "converged" true (Par_net.converged net p0)

let test_link_failure_and_recovery () =
  let net = make (Builders.ring 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check (option (list int))) "direct before" (Some [ 0 ]) (path_of net 1 p0);
  Fixture.fail_link net 0 1;
  Fixture.run net;
  (* 1 must now go the long way round *)
  Alcotest.(check (option (list int))) "rerouted" (Some [ 2; 3; 0 ]) (path_of net 1 p0);
  Alcotest.(check bool) "link reported down" false (Network.link_up (Fixture.shard net) 0 1);
  Fixture.restore_link net 0 1;
  Fixture.run net;
  Alcotest.(check (option (list int))) "direct restored" (Some [ 0 ]) (path_of net 1 p0);
  Alcotest.(check bool) "converged after recovery" true (Par_net.converged net p0)

let test_partition_loses_routes () =
  let net = make (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Fixture.fail_link net 1 2;
  Fixture.run net;
  Alcotest.(check (option (list int))) "near side keeps route" (Some [ 0 ]) (path_of net 1 p0);
  Alcotest.(check (option (list int))) "far side loses route" None (path_of net 2 p0)

let test_multi_prefix () =
  let p1 = Prefix.v 1 in
  let net = make (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:2 p1;
  Fixture.run net;
  Alcotest.(check (option (list int))) "p0 at 2" (Some [ 1; 0 ]) (path_of net 2 p0);
  Alcotest.(check (option (list int))) "p1 at 0" (Some [ 1; 2 ]) (path_of net 0 p1);
  let known = Router.known_prefixes (Par_net.router net 1) in
  Alcotest.(check int) "middle knows both" 2 (List.length known)

let test_no_valley_blocks_transit () =
  (* 1 and 2 are peers; both are providers of 0 (origin's isp is 1).
     2 must not learn the route via peer 1 re-exporting a peer route…
     but 0 is 1's customer, so 1 *does* export to 2. The blocked case:
     3 is 2's peer; 2 learned the route from peer 1 → must not export
     to peer 3. *)
  let g = Graph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let rel =
    Rfd_topology.Relations.make g
      [
        ((0, 1), Rfd_topology.Relations.Customer_provider { customer = 0; provider = 1 });
        ((1, 2), Rfd_topology.Relations.Peer_peer);
        ((2, 3), Rfd_topology.Relations.Peer_peer);
      ]
  in
  let net = make ~policy:(Policy.no_valley rel) g in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "peer learns customer route" true (path_of net 2 p0 <> None);
  Alcotest.(check (option (list int))) "peer-of-peer blocked" None (path_of net 3 p0)

let test_sender_side_loop_avoidance () =
  (* In a triangle, node 1's best path to origin 0 is direct; it must not
     announce [1;0] back to 0, nor to 2 a path containing 2. Count updates:
     each of 1 and 2 announces its direct route to the other only. *)
  let net = make (Builders.ring 3) in
  let sent = ref [] in
  (Par_net.bus net).Hooks.on_send <-
    (fun ~time:_ ~src ~dst u -> sent := (src, dst, Update.is_withdrawal u) :: !sent);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  List.iter
    (fun (src, dst, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "no echo back to origin of its own route (%d->%d)" src dst)
        false
        (dst = 0 && src <> 0))
    !sent

let test_converged_detects_fixpoint () =
  let net = make (Builders.line 3) in
  Alcotest.(check bool) "trivially converged" true (Par_net.converged net p0);
  Par_net.originate net ~node:0 p0;
  (* before running, messages are conceptually in flight *)
  Fixture.run net;
  Alcotest.(check bool) "converged after run" true (Par_net.converged net p0)

let test_delivered_updates_released () =
  (* A message's update lives in its in-flight row only until delivery: a
     drained network holds none of the updates it sent. *)
  let net = make (Builders.ring 5) in
  let sent = Weak.create 1024 and count = ref 0 in
  (Par_net.bus net).Hooks.on_send <-
    (fun ~time:_ ~src:_ ~dst:_ update ->
      Weak.set sent !count (Some update);
      incr count);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Par_net.withdraw net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "updates were sent" true (!count > 0);
  Alcotest.(check int) "nothing in flight" 0 (Network.in_flight (Fixture.shard net));
  Gc.full_major ();
  for i = 0 to !count - 1 do
    Alcotest.(check bool) (Printf.sprintf "update %d collected" i) false (Weak.check sent i)
  done;
  (* The network itself is still live here, so its in-flight table was a
     root. *)
  Alcotest.(check int) "network still live" 0 (Network.in_flight (Fixture.shard net))

(* A refused message changes nothing: one in the past of an idle link,
   and one not after the link's newest row, which it would have to
   follow. *)
let test_deliver_remote_refusal_leaves_nothing () =
  let sim = Sim.create () in
  let graph = Builders.line 2 in
  let net =
    Network.create ~ownership:(Array.make 2 true, ignore) ~config:fast_config sim graph
  in
  let arrivals = ref [] in
  (Network.hooks net).Hooks.on_deliver <-
    (fun ~time ~src:_ ~dst:_ _ -> arrivals := time :: !arrivals);
  Sim.post sim (Sim.channel sim (fun _ _ -> ())) ~time:5. 0;
  Sim.run sim;
  let update = Update.withdraw p0 in
  let remote at =
    { Network.remote_eid = 0; remote_src = 0; remote_dst = 1; remote_at = at;
      remote_epoch = 0; remote_update = update }
  in
  Alcotest.check_raises "past delivery refused"
    (Invalid_argument "Sim.post: time in the past") (fun () ->
      Network.deliver_remote net (remote 1.));
  Alcotest.(check int) "nothing in flight" 0 (Network.in_flight net);
  Network.deliver_remote net (remote 6.);
  Alcotest.(check int) "accepted delivery in flight" 1 (Network.in_flight net);
  List.iter
    (fun at ->
      match Network.deliver_remote net (remote at) with
      | () -> Alcotest.failf "delivery at %g accepted behind one at 6" at
      | exception Invalid_argument _ ->
          Alcotest.(check int) (Printf.sprintf "refused %g leaves one in flight" at) 1
            (Network.in_flight net))
    [ 6.; 5.5; Float.nan ];
  Network.deliver_remote net (remote 7.);
  Alcotest.(check int) "queued behind it" 2 (Network.in_flight net);
  Alcotest.(check int) "one heap entry" 1 (Sim.heap_size sim);
  Sim.run sim;
  Alcotest.(check int) "delivered" 0 (Network.in_flight net);
  Alcotest.(check (list (float 0.))) "in order" [ 6.; 7. ] (List.rev !arrivals)

(* A slot's rows after its oldest wait in the ring, not in the event
   heap: a burst of 1,000 updates on one link holds one heap entry. *)
let test_burst_holds_one_heap_entry () =
  let net = make (Builders.line 2) in
  for p = 0 to 999 do
    Par_net.originate net ~node:0 (Prefix.v p)
  done;
  let shard = Fixture.shard net in
  Alcotest.(check int) "in flight" 1000 (Network.in_flight shard);
  Alcotest.(check int) "one heap entry" 1 (Sim.heap_size (Fixture.sim net));
  Fixture.run net;
  Alcotest.(check int) "all delivered" 0 (Network.in_flight shard);
  Alcotest.(check int) "peak heap" 1 (Sim.max_heap_size (Fixture.sim net));
  Alcotest.(check int) "the last prefix reached router 1" 2
    (Par_net.reachable_count net (Prefix.v 999))

(* ------------------------------------------------------------------ *)
(* Wire round trip                                                     *)

(* Every shape a row must carry: both kinds, with and without a root
   cause, every rel-pref, and withdrawn prefix ids up to the largest a
   timer key holds. Announced prefix ids stay small, since a router sizes
   its slot columns by the largest one it holds an entry for. *)
let prefix_mask = (1 lsl Router.prefix_bits) - 1

let gen_update =
  let open QCheck.Gen in
  let rc =
    opt
      (map3
         (fun link down seq ->
           Root_cause.make ~link
             ~status:(if down then Root_cause.Link_down else Root_cause.Link_up)
             ~seq)
         (pair (int_bound 3) (int_bound 3))
         bool nat)
  in
  let announce =
    map3
      (fun (p, path) rc rel_pref ->
        let route = Route.make ~prefix:(Prefix.v p) ~path:(As_path.of_list path) in
        Update.Announce { route; rc; rel_pref })
      (pair (int_bound 7) (list_size (int_bound 3) (int_bound 9)))
      rc
      (oneofl [ None; Some Update.Better; Some Update.Worse; Some Update.Same_pref ])
  in
  let withdrawn =
    frequency
      [
        (2, int_bound 7);
        (2, int_bound prefix_mask);
        (1, return prefix_mask);
      ]
  in
  oneof [ announce; map2 (fun p rc -> Update.Withdraw { prefix = Prefix.v p; rc }) withdrawn rc ]

(* What the round trip does at one step of a batch: put an update on a
   link's wire (with the link's current epoch, or a stale one), or fail
   or restore a link. *)
type wire_step = Send of int * bool * Update.t | Fail of int | Restore of int

let pp_wire_step ppf = function
  | Send (l, stale, u) ->
      Format.fprintf ppf "%d%s:%a" l (if stale then " stale" else "") Update.pp u
  | Fail l -> Format.fprintf ppf "fail %d" l
  | Restore l -> Format.fprintf ppf "restore %d" l

(* Batches of steps, each flagged long or not. A long batch starts with
   more sends than the first chunk of the in-flight table has rows, so
   its rings span two chunks, and ends like a short one, so a link can
   fail with rows in flight in both. *)
let gen_batches =
  QCheck.Gen.(
    let send =
      map3
        (fun l stale u -> Send (l, stale, u))
        (int_bound 2)
        (map (fun n -> n = 0) (int_bound 7))
        gen_update
    in
    let step =
      frequency
        [
          (40, send);
          (1, map (fun l -> Fail l) (int_bound 2));
          (1, map (fun l -> Restore l) (int_bound 2));
        ]
    in
    let short = list_size (int_bound 300) step in
    let long =
      map2
        (fun sends tail -> (true, sends @ tail))
        (list_size (int_range (Column.chunk_cells + 1) (Column.chunk_cells + 100)) send)
        short
    in
    list_size (int_range 1 3) (frequency [ (6, map (fun steps -> (false, steps)) short); (1, long) ]))

(* On the line 0-1-2-3 only routers 1 and 3 are owned here, so whatever
   they send in reply goes to the outbox and every local delivery is one
   the test put on the wire: on links 0->1, 2->1 and 2->3, both directions
   of a slot, each on an edge of its own. Each batch is put on the wire
   at once, at strictly rising times, and delivered before the next, whose
   rows come off the free list. Every send puts a row on the wire: one on
   a link that is down was sent before it went down, so its epoch is
   stale. Failing a link voids its rows in flight, and a stale epoch
   voids a row as it is put on the wire; a void row is dropped, and every
   other row arrives at the time it was sent for. *)
let prop_wire_round_trip =
  QCheck.Test.make ~count:30 ~name:"the wire delivers each update equal by value, FIFO per link"
    (QCheck.make
       ~print:(fun batches ->
         String.concat " | "
           (List.map
              (fun (long, batch) ->
                (if long then "long: " else "")
                ^ String.concat "; " (List.map (Format.asprintf "%a" pp_wire_step) batch))
              batches))
       gen_batches)
    (fun batches ->
      let graph = Builders.line 4 in
      let sim = Sim.create () in
      let net =
        Network.create ~ownership:([| false; true; false; true |], ignore) ~config:fast_config
          sim graph
      in
      let links = [| (0, 1); (2, 1); (2, 3) |] in
      let eid l = Option.get (Graph.edge_id graph (fst links.(l)) (snd links.(l))) in
      let epoch = Array.make 3 0 in
      (* By link, newest first: this batch's rows on the wire, each with
         its time and void flag; the (time, update) pairs that must arrive;
         those that did. *)
      let in_flight = Array.make 3 [] and expected = Array.make 3 [] in
      let delivered = Array.make 3 [] in
      let link_of src dst =
        let rec find l = if links.(l) = (src, dst) then l else find (l + 1) in
        find 0
      in
      (Network.hooks net).Hooks.on_deliver <-
        (fun ~time ~src ~dst u ->
          let l = link_of src dst in
          delivered.(l) <- (time, u) :: delivered.(l));
      List.for_all
        (fun (long, batch) ->
          let now = Sim.now sim in
          let sends = ref 0 in
          List.iteri
            (fun j step ->
              match step with
              | Send (l, stale, update) ->
                  let src, dst = links.(l) in
                  let stale = stale || not (Network.link_up net src dst) in
                  let at = now +. 1. +. (float_of_int j *. 1e-3) in
                  in_flight.(l) <- (at, update, ref stale) :: in_flight.(l);
                  incr sends;
                  Network.deliver_remote net
                    {
                      Network.remote_eid = eid l;
                      remote_src = src;
                      remote_dst = dst;
                      remote_at = at;
                      remote_epoch = (if stale then epoch.(l) - 1 else epoch.(l));
                      remote_update = update;
                    }
              | Fail l ->
                  let src, dst = links.(l) in
                  if Network.link_up net src dst then begin
                    epoch.(l) <- epoch.(l) + 1;
                    List.iter (fun (_, _, void) -> void := true) in_flight.(l)
                  end;
                  Network.fail_link net src dst
              | Restore l ->
                  let src, dst = links.(l) in
                  Network.restore_link net src dst)
            batch;
          (* Every send is a row in flight, so a long batch's rows fill
             more than the first chunk. *)
          let peak = Network.in_flight net in
          Array.iteri
            (fun l rows ->
              List.iter
                (fun (at, update, void) ->
                  if not !void then expected.(l) <- (at, update) :: expected.(l))
                (List.rev rows);
              in_flight.(l) <- [])
            in_flight;
          Sim.run sim;
          peak = !sends && ((not long) || peak > Column.chunk_cells))
        batches
      && Network.in_flight net = 0
      && Array.for_all2
           (List.equal (fun (a, u) (b, v) -> Float.equal a b && Update.equal u v))
           expected delivered)

(* At 3e7 s, 1 ns is under half an ulp (3.7 ns), so a floor of "1 ns
   after the link's last delivery" rounds back to that delivery's time.
   A withdrawal and a re-announcement that leave router 0 in one instant
   must still reach router 1 at strictly increasing times, in the order
   they were sent. *)
let test_fifo_floor_is_strict () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let at = 3e7 in
  Alcotest.(check bool) "1 ns rounds away at this time" true (at +. 0.01 +. 1e-9 = at +. 0.01);
  let arrivals = ref [] in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time ~src ~dst update ->
      if src = 0 && dst = 1 then arrivals := (time, Update.is_withdrawal update) :: !arrivals);
  Par_net.schedule_withdraw net ~at ~node:0 p0;
  Par_net.schedule_originate net ~at ~node:0 p0;
  Fixture.run net;
  match List.rev !arrivals with
  | [ (t_withdraw, true); (t_announce, false) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "delivery times increase (%.17g, %.17g)" t_withdraw t_announce)
        true (t_withdraw < t_announce);
      Alcotest.(check int) "router 1 holds the route" 2 (Par_net.reachable_count net p0)
  | _ -> Alcotest.fail "expected the withdrawal, then the announcement"

(* Every router is a view of its network's arena, so a fresh network's
   words grow with its sessions, not with per-router blocks. A BA graph of
   1,000 nodes at table hint 2 holds at most 32 words per directed
   session besides its graph with Cisco damping everywhere, and at most
   28 without damping: a layout in which each router owns its columns
   holds about 41 and 35. The fault columns (loss, duplication and their
   streams, a word per directed session each) appear at the first
   degradation, not before. *)
let test_no_router_owns_an_array () =
  let n = 1000 in
  let graph = Rfd_topology.Random_graphs.barabasi_albert (Rfd_engine.Rng.create 1) ~n ~m:2 in
  let sessions = 2 * Graph.num_edges graph in
  let words net = Obj.reachable_words (Obj.repr net) - Obj.reachable_words (Obj.repr graph) in
  let fresh config =
    Network.create ~ownership:(Array.make n true, ignore) ~config (Sim.create ()) graph
  in
  let base = { Config.default with Config.prefix_table_hint = 2 } in
  let within label net bound =
    let held = words net in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d words for %d sessions, at most %d each" label held sessions bound)
      true
      (held <= bound * sessions);
    held
  in
  let cisco = Config.with_damping Rfd_damping.Params.cisco base in
  ignore (within "Cisco damping everywhere" (fresh cisco) 32);
  let net = fresh base in
  let before = within "no damping" net 28 in
  Network.set_degradation net ~src:0 ~dst:1 ~loss:0. ~duplication:0.;
  let added = words net - before in
  Alcotest.(check bool)
    (Printf.sprintf "the first degradation adds the fault columns (%d words)" added)
    true
    (added >= 3 * sessions)

let suite =
  [
    Alcotest.test_case "line propagation" `Quick test_line_propagation;
    Alcotest.test_case "withdrawal propagation" `Quick test_withdrawal_propagation;
    Alcotest.test_case "shortest path + tie-break" `Quick test_shortest_path_selection;
    Alcotest.test_case "ring converges loop-free" `Quick test_ring_convergence_no_loops;
    Alcotest.test_case "path exploration amplification" `Quick test_path_exploration_on_withdrawal;
    Alcotest.test_case "MRAI rate limits" `Quick test_mrai_rate_limits;
    Alcotest.test_case "MRAI flush yields final state" `Quick test_mrai_flush_delivers_final_state;
    Alcotest.test_case "link failure and recovery" `Quick test_link_failure_and_recovery;
    Alcotest.test_case "partition loses routes" `Quick test_partition_loses_routes;
    Alcotest.test_case "multiple prefixes" `Quick test_multi_prefix;
    Alcotest.test_case "no-valley blocks peer transit" `Quick test_no_valley_blocks_transit;
    Alcotest.test_case "sender-side loop avoidance" `Quick test_sender_side_loop_avoidance;
    Alcotest.test_case "converged fixpoint check" `Quick test_converged_detects_fixpoint;
    Alcotest.test_case "delivered updates are released" `Quick test_delivered_updates_released;
    Alcotest.test_case "same-instant sends arrive strictly in order" `Quick
      test_fifo_floor_is_strict;
    Alcotest.test_case "deliver_remote: refused message leaves nothing" `Quick
      test_deliver_remote_refusal_leaves_nothing;
    Alcotest.test_case "a burst on one link holds one heap entry" `Quick
      test_burst_holds_one_heap_entry;
    Alcotest.test_case "no router owns an array" `Quick test_no_router_owns_an_array;
    QCheck_alcotest.to_alcotest prop_wire_round_trip;
  ]
