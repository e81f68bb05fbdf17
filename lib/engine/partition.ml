(* Deterministic cross-partition mailboxes for conservative parallel
   simulation.

   One FIFO queue per (src, dst) partition pair. During an epoch each
   partition's domain posts only to its own row, so rows are single-writer
   and need no locking; the barrier (which happens-before the next epoch
   through Par_sim's lock) drains every queue on the coordinating
   domain in a fixed (dst, src, post order) sequence. Messages themselves
   carry their delivery timestamps, and the receiving simulator orders
   same-instant events by their post arguments, so the pop order does not
   depend on the drain order. *)

type 'msg t = { parts : int; queues : 'msg Queue.t array (* row-major: src * parts + dst *) }

let create ~parts =
  if parts < 1 then invalid_arg "Partition.create: parts must be >= 1";
  { parts; queues = Array.init (parts * parts) (fun _ -> Queue.create ()) }

let parts t = t.parts

let check t name p =
  if p < 0 || p >= t.parts then
    invalid_arg (Printf.sprintf "Partition.%s: partition %d out of range" name p)

let post t ~src ~dst msg =
  check t "post" src;
  check t "post" dst;
  Queue.push msg t.queues.((src * t.parts) + dst)

let pending t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let drain t ~deliver =
  let n = ref 0 in
  for dst = 0 to t.parts - 1 do
    for src = 0 to t.parts - 1 do
      let q = t.queues.((src * t.parts) + dst) in
      while not (Queue.is_empty q) do
        incr n;
        deliver ~dst (Queue.pop q)
      done
    done
  done;
  !n
