type t = {
  now : float array;
      (* Singleton cell: [now] is stored on every event fire, and a float
         array write does not box, unlike a mutable float field of a mixed
         record. *)
  queue : Event_queue.t;
  root_rng : Rng.t;
  mutable active : Lane.view array;
  mutable n_active : int;
      (* Binary min-heap of the non-empty lanes, keyed by their head's
         (time, seq). Lanes enter when a push makes them non-empty and
         leave when a pop empties them, so idle lanes cost nothing per
         event. *)
}

type handle = Event_queue.handle
type 'a lane = 'a Lane.t

let create ?(seed = 42) () =
  {
    now = [| 0.0 |];
    queue = Event_queue.create ();
    root_rng = Rng.create seed;
    active = [||];
    n_active = 0;
  }

let now t = t.now.(0)
let rng t = t.root_rng

let schedule_at t ~time f =
  if not (time >= t.now.(0)) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time
         t.now.(0));
  Event_queue.add t.queue ~time f

let schedule t ~delay f =
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.now.(0) +. delay) f

let cancel t h = Event_queue.cancel t.queue h
let null_handle = Event_queue.none
let is_null = Event_queue.is_none

(* ---------- active-lane heap ---------- *)

(* Heads are unique: every entry carries its own seq. *)
let earlier (a : Lane.view) (b : Lane.view) =
  let ta = a.head_time.(0) and tb = b.head_time.(0) in
  ta < tb || (ta = tb && a.head_seq < b.head_seq)

(* Both sifts carry [v] through a hole and store it once at its place,
   instead of swapping at every level. *)
let rec sift_up a v i =
  if i = 0 then a.(0) <- v
  else begin
    let parent = (i - 1) / 2 in
    let p = a.(parent) in
    if earlier v p then begin
      a.(i) <- p;
      sift_up a v parent
    end
    else a.(i) <- v
  end

let rec sift_down a n v i =
  let left = (2 * i) + 1 in
  if left >= n then a.(i) <- v
  else begin
    let right = left + 1 in
    let c = if right < n && earlier a.(right) a.(left) then right else left in
    let child = a.(c) in
    if earlier child v then begin
      a.(i) <- child;
      sift_down a n v c
    end
    else a.(i) <- v
  end

let[@simlint.alloc_ok "amortized geometric growth; the heap never shrinks"]
    grow_active t v =
  let active = Array.make (max 8 (2 * t.n_active)) v in
  Array.blit t.active 0 active 0 t.n_active;
  t.active <- active

let insert t v =
  if t.n_active = Array.length t.active then grow_active t v;
  let i = t.n_active in
  t.n_active <- i + 1;
  sift_up t.active v i

(* Fire the earliest lane. The heap is made valid again between the pop
   and the delivery, because the callback may push onto this lane (even
   the one its pop just emptied) or onto any other. *)
let fire_root t =
  let a = t.active in
  let v = a.(0) in
  v.Lane.pop ();
  if v.Lane.queued > 0 then sift_down a t.n_active v 0
  else begin
    let last = t.n_active - 1 in
    t.n_active <- last;
    if last > 0 then sift_down a last a.(last) 0
  end;
  v.Lane.deliver_popped ()

(* ---------- lanes ---------- *)

let lane t ~dummy ~deliver = Lane.create ~clock:t.now ~dummy ~deliver

let schedule_packet t l ~delay x =
  if not (delay >= 0.0) then
    invalid_arg "Sim.schedule_packet: negative delay";
  if Lane.can_accept l ~delay then begin
    Lane.push l ~delay ~seq:(Event_queue.take_seq t.queue) x;
    if Lane.length l = 1 then insert t (Lane.view l)
  end
  else
    (* Out-of-FIFO delivery (e.g. a delay function that varies per
       packet): fall back to the heap. Ordering stays global (time, seq)
       either way; only the allocation profile differs. *)
    ignore
      (Event_queue.add t.queue ~time:(t.now.(0) +. delay)
         ((fun () -> Lane.apply l x)
         [@simlint.alloc_ok
           "heap fallback for out-of-FIFO delivery; the lane fast path \
            builds no closure"]))

(* ---------- event loop ---------- *)

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let q = t.queue in
  let continue = ref true in
  while !continue do
    Event_queue.settle q;
    let timers = Event_queue.heap_length q > 0 in
    (* Read once per event: the call returns a boxed float. *)
    let qt = if timers then Event_queue.head_time_unsafe q else infinity in
    (* The earliest lane goes first if its head is earlier in the global
       (time, seq) order than the timer heap's head. *)
    let from_lane =
      t.n_active > 0
      &&
      let v = t.active.(0) in
      let vt = v.Lane.head_time.(0) in
      vt < qt
      || vt = qt && timers
         && v.Lane.head_seq < Event_queue.head_seq_unsafe q
    in
    let time = if from_lane then t.active.(0).Lane.head_time.(0) else qt in
    if time = infinity then continue := false
    else if time > limit then begin
      t.now.(0) <- limit;
      continue := false
    end
    else begin
      t.now.(0) <- time;
      if from_lane then fire_root t else (Event_queue.take_head q) ()
    end
  done;
  match until with
  | Some limit when t.now.(0) < limit -> t.now.(0) <- limit
  | Some _ | None -> ()

let pending_events t =
  let n = ref (Event_queue.size t.queue) in
  for i = 0 to t.n_active - 1 do
    n := !n + t.active.(i).Lane.queued
  done;
  !n
