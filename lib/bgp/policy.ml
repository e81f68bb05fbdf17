module Relations = Rfd_topology.Relations

type t = {
  name : string;
  import_preference : me:int -> from_peer:int -> path:As_path.t -> int;
  export_allowed : me:int -> learned_from:int option -> to_peer:int -> path:As_path.t -> bool;
}

let name t = t.name
let import_preference t = t.import_preference
let export_allowed t = t.export_allowed

let announce_all =
  {
    name = "announce-all";
    import_preference = (fun ~me:_ ~from_peer:_ ~path:_ -> 0);
    export_allowed = (fun ~me:_ ~learned_from:_ ~to_peer:_ ~path:_ -> true);
  }

let no_valley relations =
  let side me nbr = Relations.side relations ~me ~neighbour:nbr in
  {
    name = "no-valley";
    import_preference =
      (fun ~me ~from_peer ~path:_ ->
        match side me from_peer with
        | Relations.Customer -> 100
        | Relations.Peer -> 90
        | Relations.Provider -> 80);
    export_allowed =
      (fun ~me ~learned_from ~to_peer ~path:_ ->
        match learned_from with
        | None -> true (* own prefixes go to everyone *)
        | Some src -> (
            match side me src with
            | Relations.Customer -> true (* customer routes go to everyone *)
            | Relations.Peer | Relations.Provider ->
                (* transit routes only flow down to customers *)
                side me to_peer = Relations.Customer));
  }

let custom ~name ~import_preference ~export_allowed =
  { name; import_preference; export_allowed }
