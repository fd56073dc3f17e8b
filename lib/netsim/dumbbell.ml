module Sim = Sim_engine.Sim

type flow_spec = { flow : int; base_rtt : Sim_engine.Units.seconds }

(* Every flow with the same one-way delay [h = base_rtt / 2] shares one
   forward lane (link exit to receiver) and one reverse lane (receiver to
   ACK arrival; only the forward lane's callback needs it). Exits leave one
   serial link in order and each hop adds the class's constant [h], so both
   lanes are FIFO. *)
type delay_class = { h : float; fwd : Packet.t Sim.lane }

(* The flow table, indexed by flow id (ids are small and dense: static
   flows, then churn ids counting up). Held apart from [t] so the link's
   and the lanes' delivery callbacks can close over it before the link
   exists. *)
type table = {
  sim : Sim.t;
  mutable classes : delay_class array;
  mutable cls : int array;  (* index into [classes]; -1 = unknown flow *)
  mutable handlers : (Packet.t -> unit) array;
  mutable attached : bool array;  (* an ACK handler is registered *)
  mutable orphaned : int;
}

type t = {
  rate_bps : Sim_engine.Units.rate_bps;
  queue : Droptail_queue.t;
  link : Link.t;
  table : table;
  trace : Sim_engine.Trace.t option;
}

let no_handler (_ : Packet.t) = ()
let orphan fl = fl.orphaned <- fl.orphaned + 1

let class_index fl flow =
  if flow >= 0 && flow < Array.length fl.cls then fl.cls.(flow) else -1

let attached fl flow =
  flow >= 0 && flow < Array.length fl.attached && fl.attached.(flow)

(* The three per-packet hops. A flow that is unknown or detached at any of
   them has its packet counted in [orphaned] and dropped. *)

(* Link exit: onto the flow's forward lane. *)
let forward fl (p : Packet.t) =
  let c = class_index fl p.flow in
  if c < 0 then orphan fl
  else begin
    let dc = fl.classes.(c) in
    Sim.schedule_packet fl.sim dc.fwd ~delay:dc.h p
  end

(* Receiver instant: the ACK rides the same class's reverse lane, so it
   arrives at [(t_exit + h) + h]. *)
let reflect fl rev h (p : Packet.t) =
  if attached fl p.flow then Sim.schedule_packet fl.sim rev ~delay:h p
  else orphan fl

(* ACK instant: to whatever handler the flow has now. *)
let dispatch fl (p : Packet.t) =
  if attached fl p.flow then fl.handlers.(p.flow) p else orphan fl

let class_of_delay fl h =
  let n = Array.length fl.classes in
  let rec find i =
    if i = n then begin
      let rev = Sim.lane fl.sim ~dummy:Packet.dummy ~deliver:(dispatch fl) in
      let fwd =
        Sim.lane fl.sim ~dummy:Packet.dummy ~deliver:(reflect fl rev h)
      in
      fl.classes <- Array.append fl.classes [| { h; fwd } |];
      n
    end
    else if Float.equal fl.classes.(i).h h then i
    else find (i + 1)
  in
  find 0

let grow fl flow =
  let n = max (flow + 1) (2 * Array.length fl.cls) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  fl.cls <- extend fl.cls (-1);
  fl.handlers <- extend fl.handlers no_handler;
  fl.attached <- extend fl.attached false

let add_flow t ~flow ~base_rtt =
  if flow < 0 then invalid_arg "Dumbbell.add_flow: negative flow id";
  let fl = t.table in
  if flow >= Array.length fl.cls then grow fl flow;
  fl.cls.(flow) <-
    class_of_delay fl (((base_rtt : Sim_engine.Units.seconds) :> float) /. 2.0)

let create ?policy ?trace ~sim ~rate_bps ~buffer_bytes ~flows () =
  let queue = Droptail_queue.create ?policy ~capacity_bytes:buffer_bytes () in
  (* Drops surface on the telemetry stream through the queue's drop hook
     (chained onto whatever hook a later [set_drop_hook] caller installs
     would replace — instrumentation is installed first, at creation). *)
  (match trace with
  | None -> ()
  | Some tr ->
    let inner = Droptail_queue.drop_hook queue in
    Droptail_queue.set_drop_hook queue (fun ~early (p : Packet.t) ->
        Sim_engine.Trace.emit tr ~time:(Sim_engine.Sim.now sim) ~flow:p.flow
          (Sim_engine.Trace.Drop
             {
               seq = p.seq;
               size = p.size;
               early;
               queue_bytes = Droptail_queue.occupancy_bytes queue;
             });
        inner ~early p));
  let fl =
    {
      sim;
      classes = [||];
      cls = [||];
      handlers = [||];
      attached = [||];
      orphaned = 0;
    }
  in
  let link = Link.create ~sim ~rate_bps ~queue ~deliver:(forward fl) in
  let t = { rate_bps; queue; link; table = fl; trace } in
  List.iter (fun { flow; base_rtt } -> add_flow t ~flow ~base_rtt) flows;
  t

let sim t = t.table.sim
let queue t = t.queue
let link t = t.link
let rate_bps t = t.rate_bps

let base_rtt_of t flow =
  let c = class_index t.table flow in
  if c < 0 then raise Not_found;
  Sim_engine.Units.seconds (2.0 *. t.table.classes.(c).h)

let set_ack_handler t ~flow handler =
  let fl = t.table in
  if class_index fl flow < 0 then raise Not_found;
  fl.handlers.(flow) <- handler;
  fl.attached.(flow) <- true

let ack_handler t ~flow =
  if attached t.table flow then Some t.table.handlers.(flow) else None

let remove_flow t ~flow =
  let fl = t.table in
  if class_index fl flow >= 0 then begin
    fl.cls.(flow) <- -1;
    fl.handlers.(flow) <- no_handler;
    fl.attached.(flow) <- false
  end

let known_flow t ~flow = class_index t.table flow >= 0

let send t p =
  let verdict = Droptail_queue.enqueue t.queue p in
  (match verdict with
  | Droptail_queue.Enqueued ->
    (match t.trace with
    | None -> ()
    | Some tr ->
      Sim_engine.Trace.emit tr
        ~time:(Sim_engine.Sim.now t.table.sim)
        ~flow:Sim_engine.Trace.link_scope
        (Sim_engine.Trace.Queue_sample
           {
             queue_bytes = Droptail_queue.occupancy_bytes t.queue;
             queue_packets = Droptail_queue.length t.queue;
           }))
    [@simlint.alloc_ok
      "trace event: built only with a sink attached; the record is the \
       product"];
    Link.kick t.link
  | Droptail_queue.Dropped -> ());
  verdict

let orphaned t = t.table.orphaned
