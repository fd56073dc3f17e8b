(* Tests for the unified backend API ({!Sim_backend}): registry lookup,
   typed validation errors, digest semantics (stable per backend+spec,
   distinct across backends and across specs), and the outcome helpers
   shared by the differential tests and [repro compare]. *)

module U = Sim_engine.Units
module B = Sim_backend

let mk_spec ?(ccas = [ "cubic"; "bbr" ]) () =
  let rate_bps = U.mbps 50.0 in
  let rtt = U.ms 40.0 in
  B.spec ~warmup:(U.seconds 2.0) ~seed:7 ~rate_bps
    ~buffer_bytes:(U.bdp_bytes ~rate_bps ~rtt)
    ~duration:(U.seconds 8.0)
    (List.map (fun cca -> { B.cca; rtt }) ccas)

let test_registry () =
  Alcotest.(check (list string))
    "names" [ "packet"; "fluid"; "ode" ] (B.names ());
  List.iter
    (fun backend ->
      match B.find (B.name backend) with
      | Ok b -> Alcotest.(check string) "find roundtrip" (B.name backend) (B.name b)
      | Error _ -> Alcotest.failf "find %S failed" (B.name backend))
    B.all;
  (match B.find "heun" with
  | Error (B.Unknown_backend { name; known }) ->
      Alcotest.(check string) "unknown name echoed" "heun" name;
      Alcotest.(check (list string)) "known list" (B.names ()) known
  | Ok _ | Error _ -> Alcotest.fail "find \"heun\" should be Unknown_backend");
  match B.find_exn "heun" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_exn \"heun\" should raise"

let test_supports () =
  (* The packet simulator covers the whole CCA registry; the analytic
     backends model only the paper's three. *)
  List.iter
    (fun cca ->
      Alcotest.(check bool) ("packet " ^ cca) true (B.supports B.packet cca);
      Alcotest.(check bool) ("fluid " ^ cca) true (B.supports B.fluid cca);
      Alcotest.(check bool) ("ode " ^ cca) true (B.supports B.ode cca))
    [ "cubic"; "bbr"; "bbr2" ];
  Alcotest.(check bool) "packet reno" true (B.supports B.packet "reno");
  Alcotest.(check bool) "fluid reno" false (B.supports B.fluid "reno");
  Alcotest.(check bool) "ode reno" false (B.supports B.ode "reno")

let test_validate () =
  List.iter
    (fun backend ->
      (match B.validate backend (mk_spec ()) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s rejects a valid spec: %s" (B.name backend)
            (Format.asprintf "%a" B.pp_error e));
      match B.validate backend { (mk_spec ()) with B.flows = [] } with
      | Error (B.Invalid_spec _) -> ()
      | Ok () | Error _ ->
          Alcotest.failf "%s: empty flow list should be Invalid_spec"
            (B.name backend))
    B.all;
  match B.validate B.fluid (mk_spec ~ccas:[ "cubic"; "reno" ] ()) with
  | Error (B.Unsupported_cca { backend; cca; supported }) ->
      Alcotest.(check string) "backend" "fluid" backend;
      Alcotest.(check string) "cca" "reno" cca;
      Alcotest.(check bool) "supported list names cubic" true
        (List.mem "cubic" supported)
  | Ok () | Error _ -> Alcotest.fail "fluid+reno should be Unsupported_cca"

let test_digests () =
  let spec = mk_spec () in
  List.iter
    (fun backend ->
      Alcotest.(check string)
        (B.name backend ^ " digest stable")
        (B.digest backend spec) (B.digest backend spec))
    B.all;
  let digests = List.map (fun b -> B.digest b spec) B.all in
  Alcotest.(check int)
    "digests distinct across backends"
    (List.length B.all)
    (List.length (List.sort_uniq compare digests));
  let bumped = { spec with B.duration = U.seconds 9.0 } in
  List.iter
    (fun backend ->
      if String.equal (B.digest backend spec) (B.digest backend bumped) then
        Alcotest.failf "%s digest ignores the spec" (B.name backend))
    B.all

let test_run_and_helpers () =
  let spec = mk_spec () in
  let o = B.run_exn B.fluid spec in
  Alcotest.(check (array string))
    "cca order preserved" [| "cubic"; "bbr" |] o.B.per_flow_cca;
  let total = Array.fold_left ( +. ) 0.0 o.B.per_flow_bps in
  Alcotest.(check bool)
    "utilization consistent with per-flow sum" true
    (Float.abs ((total /. 50e6) -. o.B.utilization) < 1e-9);
  Alcotest.(check bool)
    "aggregate = sum over kind" true
    (Float.abs
       (B.aggregate_bps_of_cca o "cubic"
       +. B.aggregate_bps_of_cca o "bbr"
       -. total)
    < 1e-6);
  Alcotest.(check bool)
    "mean of absent cca is nan" true
    (Float.is_nan (B.mean_bps_of_cca o "bbr2"));
  (match B.run B.ode (mk_spec ~ccas:[ "vegas" ] ()) with
  | Error (B.Unsupported_cca _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ode+vegas should be Unsupported_cca");
  match B.run_exn B.ode (mk_spec ~ccas:[ "vegas" ] ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run_exn on unsupported CCA should raise"

let test_determinism () =
  let spec = mk_spec () in
  List.iter
    (fun backend ->
      let a = B.run_exn backend spec and b = B.run_exn backend spec in
      Alcotest.(check bool)
        (B.name backend ^ " reproducible")
        true
        (a.B.per_flow_bps = b.B.per_flow_bps
        && a.B.loss_events = b.B.loss_events))
    B.all

(* --- Outcome pin ------------------------------------------------------ *)

(* The differential-grid cells the analytic backends are calibrated on:
   one flow of each modelled CCA alone, then CUBIC against BBR and BBRv2
   at a shallow and a deep buffer. *)
let grid_specs =
  let mk ~mbps ~buffer_bdp ccas =
    let rate_bps = U.mbps mbps in
    let rtt = U.ms 40.0 in
    B.spec ~warmup:(U.seconds 5.0) ~seed:1 ~rate_bps
      ~buffer_bytes:(U.scale buffer_bdp (U.bdp_bytes ~rate_bps ~rtt))
      ~duration:(U.seconds 20.0)
      (List.map (fun cca -> { B.cca; rtt }) ccas)
  in
  List.map
    (fun cca -> mk ~mbps:50.0 ~buffer_bdp:1.0 [ cca ])
    Fluidsim.Fluid_sim.supported_ccas
  @ List.concat_map
      (fun buffer_bdp ->
        List.map
          (mk ~mbps:100.0 ~buffer_bdp)
          [ [ "cubic"; "bbr" ]; [ "cubic"; "bbr2" ] ])
      [ 1.0; 10.0 ]

(* Every float in hexadecimal, so the rendering is exact and the same on
   every platform. *)
let render (o : B.outcome) =
  let h = Printf.sprintf "%h" in
  String.concat " "
    (Array.to_list
       (Array.map2
          (fun cca bps -> cca ^ "=" ^ h bps)
          o.B.per_flow_cca o.B.per_flow_bps))
  ^ Printf.sprintf " q=%s d=%s l=%d u=%s" (h o.B.mean_queue_bytes)
      (h o.B.mean_queuing_delay) o.B.loss_events (h o.B.utilization)

(* Pinned bit for bit: the digests' version tokens ("fluid-soa-2",
   "ode-rk4-2") promise that a cached outcome is what a fresh run would
   compute, so any change to these strings must come with a token bump. *)
let pinned_outcomes =
  [
    ("fluid",
     "cubic=0x1.7d784p+25 q=0x1.8d1945696d576p+17 d=0x1.0a7d0a32a756ep-5 l=4 u=0x1p+0");
    ("fluid",
     "bbr=0x1.788e2p+25 q=0x1.d5463377695f6p+17 d=0x1.3aecb29584cc1p-5 l=0 u=0x1.f9675f8aaa129p-1");
    ("fluid",
     "bbr2=0x1.788e2p+25 q=0x1.d5463377695f6p+17 d=0x1.3aecb29584cc1p-5 l=0 u=0x1.f9675f8aaa129p-1");
    ("fluid",
     "cubic=0x1.28d6p+18 bbr=0x1.775d8ep+26 q=0x1.d6112f77991cdp+18 d=0x1.3b74eb08dddd7p-5 l=308 u=0x1.f95cfe07d83b9p-1");
    ("fluid",
     "cubic=0x1.6524a60cddbd2p+26 bbr2=0x1.85399f322418cp+22 q=0x1.730a41d1b457bp+18 d=0x1.f200656d5d706p-6 l=4 u=0x1.fffffffffffe4p-1");
    ("fluid",
     "cubic=0x1.75ce3cd6b9b37p+26 bbr=0x1.ea80ca51930a1p+20 q=0x1.0b7b52777bfaap+22 d=0x1.670205884fbep-2 l=3 u=0x1.ffffffffffff8p-1");
    ("fluid",
     "cubic=0x1.7b736c6fcedacp+26 bbr2=0x1.0269c81892c82p+19 q=0x1.0996b1af29f8ep+22 d=0x1.64779099a3203p-2 l=2 u=0x1.0000000000003p+0");
    ("ode",
     "cubic=0x1.7d783fffffffep+25 q=0x1.e83e6f93a1435p+17 d=0x1.47a7a95ef4da4p-5 l=1 u=0x1.ffffffffffffdp-1");
    ("ode",
     "bbr=0x1.7d78400000011p+25 q=0x1.e848000000015p+17 d=0x1.47ae147ae1489p-5 l=0 u=0x1.000000000000bp+0");
    ("ode",
     "bbr2=0x1.7d78400000011p+25 q=0x1.e848000000015p+17 d=0x1.47ae147ae1489p-5 l=0 u=0x1.000000000000bp+0");
    ("ode",
     "cubic=0x1.5423f0e89840cp+19 bbr=0x1.7acff81e2ed07p+26 q=0x1.e848000000014p+18 d=0x1.47ae147ae1488p-5 l=66 u=0x1.000000000000ap+0");
    ("ode",
     "cubic=0x1.5c4ef64f880c6p+25 bbr2=0x1.9ea189b077f47p+25 q=0x1.e84800000000bp+18 d=0x1.47ae147ae1482p-5 l=18 u=0x1.0000000000004p+0");
    ("ode",
     "cubic=0x1.9b5aa3cdccf5ep+25 bbr=0x1.5f95dc32330cp+25 q=0x1.312d00000000dp+22 d=0x1.99999999999abp-2 l=3 u=0x1.000000000000ap+0");
    ("ode",
     "cubic=0x1.9b57be2ab630ep+25 bbr2=0x1.5f98c1d549d15p+25 q=0x1.312d00000000dp+22 d=0x1.99999999999abp-2 l=6 u=0x1.000000000000cp+0")
  ]

let test_outcomes_pinned () =
  let actual =
    List.concat_map
      (fun backend ->
        List.map
          (fun s -> (B.name backend, render (B.run_exn backend s)))
          grid_specs)
      [ B.fluid; B.ode ]
  in
  Alcotest.(check (list (pair string string)))
    "outcomes unchanged" pinned_outcomes actual

let tests =
  [
    Alcotest.test_case "registry lookup" `Quick test_registry;
    Alcotest.test_case "per-backend CCA support" `Quick test_supports;
    Alcotest.test_case "typed validation errors" `Quick test_validate;
    Alcotest.test_case "digest semantics" `Quick test_digests;
    Alcotest.test_case "run and outcome helpers" `Quick test_run_and_helpers;
    Alcotest.test_case "outcomes reproducible" `Quick test_determinism;
    Alcotest.test_case "outcomes pinned bit-exact" `Quick test_outcomes_pinned;
  ]
