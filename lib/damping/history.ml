type 'a t = {
  capacity : int;
  table : ('a, unit) Hashtbl.t;
  order : 'a Queue.t; (* insertion order, oldest at the front *)
}

(* The table starts small and grows towards [capacity] as elements arrive:
   an RCN router holds one history per session, most of which see a few
   root causes at most. Eviction order lives in [order], so the table's
   size never changes which element goes. *)
let initial_buckets = 16

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "History.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min capacity initial_buckets); order = Queue.create () }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let mem t x = Hashtbl.mem t.table x

let add t x =
  if Hashtbl.mem t.table x then `Already_present
  else begin
    if Hashtbl.length t.table >= t.capacity then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.table oldest
    end;
    Hashtbl.replace t.table x ();
    Queue.add x t.order;
    `Added
  end

let observe t x = match add t x with `Added -> `New | `Already_present -> `Seen

let clear t =
  Hashtbl.reset t.table;
  Queue.clear t.order

let to_list t = List.of_seq (Queue.to_seq t.order)
