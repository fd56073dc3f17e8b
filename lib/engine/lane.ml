(* A calendar lane: a ring-buffered FIFO of timestamped deliveries.

   Network elements with per-packet constant delay (a propagation pipe, a
   serializing link, a fixed reverse path) deliver in send order, so their
   events don't need a heap at all: the lane keeps them in a ring and the
   simulator orders only the lane *heads* against the timer heap. This
   shrinks the timer heap from O(packets in flight) to O(timers), and a
   push/pop cycle allocates nothing — the payload is stored in the ring,
   not captured in a closure.

   Every entry still carries the global (time, seq) pair, so the merged
   schedule is bit-for-bit the order a single heap would have produced. *)

type view = {
  head_time : float array;
      (* Singleton cell (a float array write does not box); [infinity]
         when the lane is empty. *)
  mutable head_seq : int;
  mutable queued : int;
  mutable pop : unit -> unit;
  mutable deliver_popped : unit -> unit;
}

type 'a t = {
  clock : float array;
      (* The owning simulator's singleton [now] cell: entry times are
         computed here from a delay, so no float crosses the module
         boundary boxed. *)
  deliver : 'a -> unit;
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  mutable popped : 'a;
      (* The payload [pop_head] took off the ring, held until
         [deliver_popped] hands it on; [dummy] otherwise. *)
  view : view;
}

let initial = 16

let pop_head t =
  let cap = Array.length t.times in
  let h = t.head in
  t.popped <- t.items.(h);
  t.items.(h) <- t.dummy;
  let h = if h + 1 = cap then 0 else h + 1 in
  t.head <- h;
  t.len <- t.len - 1;
  let v = t.view in
  v.queued <- t.len;
  if t.len = 0 then begin
    v.head_time.(0) <- infinity;
    v.head_seq <- max_int
  end
  else begin
    v.head_time.(0) <- t.times.(h);
    v.head_seq <- t.seqs.(h)
  end

let deliver_popped t =
  let x = t.popped in
  t.popped <- t.dummy;
  t.deliver x

let create ~clock ~dummy ~deliver =
  let view =
    { head_time = [| infinity |]; head_seq = max_int; queued = 0;
      pop = ignore; deliver_popped = ignore }
  in
  let t =
    {
      clock;
      deliver;
      dummy;
      times = Array.make initial infinity;
      seqs = Array.make initial 0;
      items = Array.make initial dummy;
      head = 0;
      len = 0;
      popped = dummy;
      view;
    }
  in
  view.pop <- (fun () -> pop_head t);
  view.deliver_popped <- (fun () -> deliver_popped t);
  t

let view t = t.view
let length t = t.len

let[@simlint.alloc_ok "amortized geometric growth; lanes never shrink"]
    grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' infinity in
  let seqs = Array.make cap' 0 in
  let items = Array.make cap' t.dummy in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    times.(i) <- t.times.(j);
    seqs.(i) <- t.seqs.(j);
    items.(i) <- t.items.(j)
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.items <- items;
  t.head <- 0

let tail_time t =
  let cap = Array.length t.times in
  let last = t.head + t.len - 1 in
  t.times.(if last >= cap then last - cap else last)

let can_accept t ~delay = t.len = 0 || t.clock.(0) +. delay >= tail_time t

let push t ~delay ~seq x =
  let time = t.clock.(0) +. delay in
  if Float.is_nan time then invalid_arg "Lane.push: NaN time";
  if t.len > 0 && time < tail_time t then
    invalid_arg "Lane.push: time before lane tail (FIFO violation)";
  if t.len = Array.length t.times then grow t;
  let cap = Array.length t.times in
  let tail = t.head + t.len in
  let tail = if tail >= cap then tail - cap else tail in
  t.times.(tail) <- time;
  t.seqs.(tail) <- seq;
  t.items.(tail) <- x;
  t.len <- t.len + 1;
  let v = t.view in
  v.queued <- t.len;
  if t.len = 1 then begin
    v.head_time.(0) <- time;
    v.head_seq <- seq
  end

let apply t x = t.deliver x
