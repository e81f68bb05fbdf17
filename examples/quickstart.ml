(* Quickstart: build a small network, let it converge, inspect routes,
   then watch a link failure reroute traffic.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A 4x4 grid of routers (16 ASes), no damping. *)
  let graph = Rfd.Builders.grid ~rows:4 ~cols:4 in
  let net = Rfd.Par_net.create ~config:Rfd.Config.default ~partitions:1 graph in

  (* Router 0 originates a prefix; run the simulation to quiescence. *)
  let prefix = Rfd.Prefix.v 0 in
  Rfd.Par_net.originate net ~node:0 prefix;
  ignore (Rfd.Par_net.drive net);

  Format.printf "After initial convergence (t = %.2fs):@." (Rfd.Par_net.now net);
  for node = 0 to Rfd.Graph.num_nodes graph - 1 do
    match Rfd.Router.best (Rfd.Par_net.router net node) prefix with
    | Some route -> Format.printf "  router %2d -> %a@." node Rfd.Route.pp route
    | None -> Format.printf "  router %2d -> unreachable@." node
  done;

  (* Fail the link between 0 and 1 now: router 1 must find a detour. *)
  Rfd.Par_net.schedule_fail_link net ~at:(Rfd.Par_net.now net) 0 1;
  ignore (Rfd.Par_net.drive net);
  Format.printf "@.After failing link (0, 1):@.";
  (match Rfd.Router.best (Rfd.Par_net.router net 1) prefix with
  | Some route -> Format.printf "  router 1 now uses %a@." Rfd.Route.pp route
  | None -> Format.printf "  router 1 lost the route@.");

  Rfd.Par_net.schedule_restore_link net ~at:(Rfd.Par_net.now net) 0 1;
  ignore (Rfd.Par_net.drive net);
  Format.printf "@.After restoring the link, converged: %b@."
    (Rfd.Par_net.converged net prefix)
