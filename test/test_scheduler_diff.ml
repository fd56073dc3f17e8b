(* Differential test for the event core: the pooled heap plus calendar
   lanes must pop events in exactly the order a naive sorted-list scheduler
   would — (time, seq) lexicographic, where seq is drawn from the shared
   counter in schedule-call order.

   The reference model mirrors every [Sim.schedule] / [Sim.schedule_packet]
   call with its own (time, seq, id) record and sorts at the end; the real
   simulator records the ids its callbacks fire. Lane pushes use random
   delays on shared lanes, so FIFO violations (and the heap-fallback path)
   occur constantly; cancels target random handles including stale ones, so
   slot reuse under the stamp discipline is exercised too. *)

open Sim_engine

type ref_event = {
  r_time : float;
  r_seq : int;
  r_id : int;
  mutable r_cancelled : bool;
}

(* Deterministic LCG: simlint R1 bans [Random] and the op stream must be
   reproducible across runs anyway. *)
let make_lcg seed =
  let st = ref (seed land 0x3FFFFFFFFFFF) in
  fun bound ->
    st := ((!st * 25214903917) + 11) land 0x3FFFFFFFFFFF;
    !st mod bound

let run_differential ~seed ~rounds ~ops_per_round ~n_lanes =
  let rand = make_lcg seed in
  let sim = Sim.create () in
  let fired = ref [] in
  let fired_ids = Hashtbl.create 256 in
  let record id =
    fired := id :: !fired;
    Hashtbl.replace fired_ids id ()
  in
  let lanes = Array.init n_lanes (fun _ -> Sim.lane sim ~dummy:(-1) ~deliver:record) in
  let reference = ref [] in
  let seq_counter = ref 0 in
  let next_id = ref 0 in
  let handles = ref [] in
  let n_handles = ref 0 in
  for _round = 1 to rounds do
    let now = Sim.now sim in
    for _op = 1 to ops_per_round do
      let delay = float_of_int (rand 2000) /. 1000.0 in
      match rand 10 with
      | 0 | 1 | 2 | 3 ->
        (* Heap-scheduled timer. *)
        let id = !next_id in
        incr next_id;
        let entry =
          { r_time = now +. delay; r_seq = !seq_counter; r_id = id;
            r_cancelled = false }
        in
        incr seq_counter;
        let h = Sim.schedule sim ~delay (fun () -> record id) in
        reference := entry :: !reference;
        handles := (h, entry) :: !handles;
        incr n_handles
      | 4 | 5 | 6 | 7 ->
        (* Lane delivery; random delays on a shared lane frequently violate
           FIFO and take the heap-fallback path. Either way one seq is
           drawn, so the reference is substrate-agnostic. *)
        let id = !next_id in
        incr next_id;
        let entry =
          { r_time = now +. delay; r_seq = !seq_counter; r_id = id;
            r_cancelled = false }
        in
        incr seq_counter;
        Sim.schedule_packet sim lanes.(rand n_lanes) ~delay id;
        reference := entry :: !reference
      | _ -> (
        (* Cancel a random handle — possibly one whose event already fired
           (stale; must no-op even if the pool slot was reused). *)
        match !handles with
        | [] -> ()
        | hs ->
          let h, entry = List.nth hs (rand !n_handles) in
          Sim.cancel sim h;
          if (not entry.r_cancelled) && not (Hashtbl.mem fired_ids entry.r_id)
          then entry.r_cancelled <- true)
    done;
    Sim.run ~until:(now +. 0.5) sim
  done;
  Sim.run sim;
  let expected =
    !reference
    |> List.filter (fun e -> not e.r_cancelled)
    |> List.sort (fun a b ->
           match Float.compare a.r_time b.r_time with
           | 0 -> Int.compare a.r_seq b.r_seq
           | c -> c)
    |> List.map (fun e -> e.r_id)
  in
  let actual = List.rev !fired in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: event count" seed)
    (List.length expected) (List.length actual);
  if expected <> actual then begin
    let rec first_diff i = function
      | e :: es, a :: as_ ->
        if e <> a then
          Alcotest.failf "seed %d: divergence at pop %d: expected id %d, got %d"
            seed i e a
        else first_diff (i + 1) (es, as_)
      | _ -> Alcotest.failf "seed %d: pop streams differ in length" seed
    in
    first_diff 0 (expected, actual)
  end

let test_differential () =
  List.iter
    (fun seed -> run_differential ~seed ~rounds:40 ~ops_per_round:30 ~n_lanes:4)
    [ 1; 7; 42; 1234; 99991 ]

let test_differential_single_lane () =
  (* One shared lane maximizes FIFO violations, so the heap-fallback path
     carries most of the lane traffic. *)
  List.iter
    (fun seed -> run_differential ~seed ~rounds:25 ~ops_per_round:40 ~n_lanes:1)
    [ 3; 17; 2026 ]

(* Re-entrant differential: here the scheduling happens inside the
   callbacks, while the simulator is between selecting an event and
   selecting the next one. A delivery pushes onto its own lane (often one
   its pop just emptied), onto other lanes, and onto the timer heap, and
   random delays on shared lanes keep the heap-fallback path busy. What a
   fired event schedules is a pure function of (seed, event id), so the
   real simulator and the reference replay the same program as long as
   they fire the same ids in the same order. Delays are multiples of
   2^-10 s, so sums of delays are exact and equal timestamps are common. *)

type sched = {
  timer : delay:float -> int -> unit;
  packet : lane:int -> delay:float -> int -> unit;
}

(* The children of event [id]: up to [fanout] schedule calls, each
   drawing its id from [next_id] in call order. Nothing is scheduled once
   [max_events] ids exist, so the cascade ends. *)
let spawn ~seed ~n_lanes ~fanout ~max_delay ~max_events ~next_id sched
    ~from_lane id =
  let rand = make_lcg ((seed * 7919) + (id * 104729) + 1) in
  for _ = 1 to rand (fanout + 1) do
    if !next_id < max_events then begin
      let child = !next_id in
      incr next_id;
      let delay = float_of_int (rand (max_delay + 1)) /. 1024.0 in
      match (rand 4, from_lane) with
      | 0, _ -> sched.timer ~delay child
      | 1, Some lane -> sched.packet ~lane ~delay child
      | _ -> sched.packet ~lane:(rand n_lanes) ~delay child
    end
  done

(* A naive scheduler: a list of pending (time, seq, id, lane) scanned for
   its (time, seq) minimum on every pop. *)
let reference_order ~spawn ~rounds ~seed_ops ~slice =
  let pending = ref [] in
  let now = ref 0.0 and seq = ref 0 and next_id = ref 0 in
  let fired = ref [] in
  let add ~delay id from_lane =
    pending := (!now +. delay, !seq, id, from_lane) :: !pending;
    incr seq
  in
  let sched =
    {
      timer = (fun ~delay id -> add ~delay id None);
      packet = (fun ~lane ~delay id -> add ~delay id (Some lane));
    }
  in
  let earlier (t1, s1, _, _) (t2, s2, _, _) = t1 < t2 || (t1 = t2 && s1 < s2) in
  let rec run_until limit =
    match !pending with
    | [] -> ()
    | e :: es ->
      let ((time, _, id, from_lane) as first) =
        List.fold_left (fun m x -> if earlier x m then x else m) e es
      in
      if time <= limit then begin
        pending := List.filter (fun x -> x != first) !pending;
        now := time;
        fired := id :: !fired;
        spawn ~next_id sched ~from_lane id;
        run_until limit
      end
  in
  for round = 0 to rounds - 1 do
    seed_ops round ~next_id sched;
    let limit = !now +. slice in
    run_until limit;
    now := limit
  done;
  run_until infinity;
  List.rev !fired

let real_order ~n_lanes ~spawn ~rounds ~seed_ops ~slice =
  let sim = Sim.create () in
  let next_id = ref 0 in
  let fired = ref [] in
  let fire = ref (fun _ _ -> ()) in
  let lanes =
    Array.init n_lanes (fun lane ->
        Sim.lane sim ~dummy:(-1) ~deliver:(fun id -> !fire (Some lane) id))
  in
  let sched =
    {
      timer =
        (fun ~delay id -> ignore (Sim.schedule sim ~delay (fun () -> !fire None id)));
      packet = (fun ~lane ~delay id -> Sim.schedule_packet sim lanes.(lane) ~delay id);
    }
  in
  (fire :=
     fun from_lane id ->
       fired := id :: !fired;
       spawn ~next_id sched ~from_lane id);
  for round = 0 to rounds - 1 do
    seed_ops round ~next_id sched;
    Sim.run ~until:(Sim.now sim +. slice) sim
  done;
  Sim.run sim;
  Alcotest.(check int) "nothing left pending" 0 (Sim.pending_events sim);
  List.rev !fired

let run_reentrant ~seed ~n_lanes ~fanout ~max_delay ~rounds ~seeds_per_round
    ~max_events =
  let spawn = spawn ~seed ~n_lanes ~fanout ~max_delay ~max_events in
  let rand = make_lcg seed in
  (* The between-slices seeding draws from one stream per side, so both
     sides must see the same draws: precompute them. *)
  let seeds =
    Array.init (rounds * seeds_per_round) (fun _ ->
        (rand 2, rand n_lanes, rand (max_delay + 1)))
  in
  let seed_ops round ~next_id sched =
    for k = 0 to seeds_per_round - 1 do
      let timer, lane, d = seeds.((round * seeds_per_round) + k) in
      let id = !next_id in
      incr next_id;
      let delay = float_of_int d /. 1024.0 in
      if timer = 0 then sched.timer ~delay id else sched.packet ~lane ~delay id
    done
  in
  let expected = reference_order ~spawn ~rounds ~seed_ops ~slice:0.25 in
  let actual = real_order ~n_lanes ~spawn ~rounds ~seed_ops ~slice:0.25 in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: cascade ran" seed)
    true
    (List.length expected > rounds * seeds_per_round);
  Alcotest.(check (list int))
    (Printf.sprintf "seed %d: fire order" seed)
    expected actual

let test_reentrant () =
  List.iter
    (fun seed ->
      run_reentrant ~seed ~n_lanes:4 ~fanout:2 ~max_delay:64 ~rounds:8
        ~seeds_per_round:6 ~max_events:3000)
    [ 5; 11; 314; 2718 ]

let test_reentrant_many_idle_lanes () =
  (* 96 lanes, a handful busy at a time; delays of 0 or 1 tick, so lanes
     drain to empty and refill at the very timestamp they emptied. *)
  List.iter
    (fun seed ->
      run_reentrant ~seed ~n_lanes:96 ~fanout:2 ~max_delay:1 ~rounds:10
        ~seeds_per_round:4 ~max_events:4000)
    [ 2; 23; 4096 ]

let tests =
  [
    Alcotest.test_case "heap + lanes match sorted-list reference" `Quick
      test_differential;
    Alcotest.test_case "single-lane stream matches reference" `Quick
      test_differential_single_lane;
    Alcotest.test_case "re-entrant scheduling matches reference" `Quick
      test_reentrant;
    Alcotest.test_case "many idle lanes refilled at equal times" `Quick
      test_reentrant_many_idle_lanes;
  ]
