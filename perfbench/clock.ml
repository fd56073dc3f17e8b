(* Monotonic nanosecond clock for spans and per-call timing; the reading is
   an unboxed int64, so a timed call site allocates nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns *. 1e-6
let s_of_ns ns = float_of_int ns *. 1e-9

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (now_ns () - t0, r)
