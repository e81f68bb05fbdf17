(* In-memory span recorder for traced benchmark runs.

   Spans are opened only by benchmark code, around calls into a layer's
   public functions; nothing inside the program is instrumented. Times are
   [Rfd.Clock.wall] seconds (CLOCK_MONOTONIC), so spans recorded by a child
   process share the parent's time base. Spans stay in memory until
   {!write}. A span's self time is its duration minus its children's. *)

module Json = Rfd.Json

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  request : int option;  (** query index, for spans of one served request *)
}

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

let add t ?request ?parent name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; start; stop; parent; request } :: t.spans;
  id

(* The innermost open span, to parent spans recorded after the fact. *)
let current t = match t.open_ with p :: _ -> Some p | [] -> None

(* Nested under the innermost span still open in [t]. The id is reserved
   up front so children can name their parent before it closes. *)
let with_span t ?request name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = current t in
  t.open_ <- id :: t.open_;
  let start = Rfd.Clock.wall () in
  Fun.protect
    ~finally:(fun () ->
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; start; stop = Rfd.Clock.wall (); parent; request } :: t.spans)
    f

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (List.rev t.spans)

let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt child p) in
          Hashtbl.replace child p (prev +. (s.stop -. s.start))
      | None -> ())
    t.spans;
  fun s -> s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

(* JSON lines, one span each, times in microseconds since the earliest
   span. *)
let write t path =
  let self = self_times t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans in
  let us x = Json.Float (1e6 *. x) in
  let opt = function Some i -> Json.Int i | None -> Json.Null in
  let span s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("name", Json.String s.name);
        ("start_us", us (s.start -. t0));
        ("end_us", us (s.stop -. t0));
        ("parent", opt s.parent);
        ("request", opt s.request);
        ("self_us", us (self s));
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc (Json.to_string ~minify:true (span s));
      output_char oc '\n')
    (List.rev t.spans)
