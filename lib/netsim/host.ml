(* A simulated host's IP stack, structured after 4.4BSD's ip_output /
   ip_input so that FBS can hook in at exactly the points the paper's
   FreeBSD implementation modified:

   Output (Section 7.2): part 1 performs the bulk of output processing
   (route selection, header construction); part 2 fragments; part 3
   transmits.  The FBS send hook runs between parts 1 and 2, so FBS
   processing is transparent to IP and fragmentation applies to the
   FBS-augmented datagram.

   Input: part 1 validates; part 2 reassembles; part 3 dispatches to the
   higher-layer protocol.  The FBS receive hook runs between parts 2 and 3.

   A hook takes the header, the payload and the host's continuation, and
   answers through the continuation exactly once, [Pass] (FBS header
   inserted or removed) or [Drop]: before it returns, later in the same
   burst, or from a later event (after a key fetch, say).

   Output runs in bursts: [burst] brackets a run of [ip_output] calls (a
   TCP send window, say), and every [ip_output] is a burst of its own,
   nested bursts counting as one. *)

type verdict = Pass of Ipv4.header * string | Drop of string (* reason, counted in stats *)
type hook = Ipv4.header -> string -> (verdict -> unit) -> unit

type stats = {
  mutable packets_out : int;
  mutable packets_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable fragments_out : int;
  mutable reassembled : int;
  mutable drops_bad : int; (* malformed / checksum *)
  mutable drops_hook : int; (* dropped by a security hook *)
  mutable drops_no_proto : int;
  mutable drops_not_mine : int;
  mutable send_errors : int; (* e.g. DF + too big *)
}

let new_stats () =
  {
    packets_out = 0;
    packets_in = 0;
    bytes_out = 0;
    bytes_in = 0;
    fragments_out = 0;
    reassembled = 0;
    drops_bad = 0;
    drops_hook = 0;
    drops_no_proto = 0;
    drops_not_mine = 0;
    send_errors = 0;
  }

type t = {
  name : string;
  addr : Addr.t;
  engine : Engine.t;
  mutable medium : Medium.t option;
  mutable link : Link.t option;
      (* Fault-injection stage between this host and the medium; egress
         frames pass through it when present. *)
  mtu : int;
  protocols : (int, t -> Ipv4.header -> string -> unit) Hashtbl.t;
  mutable output_hook : hook option;
  mutable input_hook : hook option;
  transmit : verdict -> unit; (* the output hook's continuation, built once *)
  deliver : verdict -> unit; (* ... and the input hook's *)
  mutable burst_depth : int; (* open [burst] brackets *)
  mutable burst_end : unit -> unit; (* runs when the outermost one closes *)
  mutable send_error : exn option; (* the open burst's first [Send_error] *)
  reassembler : Frag.t;
  mutable next_ident : int;
  mutable clock_offset : float;
      (* This host's clock error relative to simulated true time.  FBS's
         timestamp scheme only assumes *loose* synchronization; the offset
         lets tests and experiments quantify how loose. *)
  (* Off-subnet traffic goes to the gateway at the link layer (the IP
     destination is unchanged — that is what lets a router forward it). *)
  mutable subnet_prefix : int option;
  mutable gateway : Addr.t option;
  stats : stats;
  (* Arbitrary per-host extension state (used by the UDP/TCP stacks and by
     FBS to store its engine), keyed by a string tag. *)
  extensions : (string, exn) Hashtbl.t;
}

let name t = t.name
let addr t = t.addr
let engine t = t.engine
let mtu t = t.mtu
let stats t = t.stats
let now t = Engine.now t.engine +. t.clock_offset
let set_clock_offset t seconds = t.clock_offset <- seconds
let clock_offset t = t.clock_offset

let set_gateway t ~prefix ~gateway =
  if prefix < 0 || prefix > 32 then invalid_arg "Host.set_gateway: bad prefix";
  t.subnet_prefix <- Some prefix;
  t.gateway <- Some gateway

(* Link-layer destination for an IP destination: direct neighbours get the
   frame directly, everything else goes to the gateway. *)
let link_dst t dst =
  match (t.subnet_prefix, t.gateway) with
  | Some prefix, Some gw when not (Addr.in_subnet ~network:t.addr ~prefix dst) -> gw
  | _ -> dst

let set_link t link = t.link <- Some link
let clear_link t = t.link <- None

let set_output_hook t h = t.output_hook <- Some h
let set_input_hook t h = t.input_hook <- Some h
let set_burst_end t f = t.burst_end <- f

let clear_hooks t =
  t.output_hook <- None;
  t.input_hook <- None;
  t.burst_end <- ignore

let register_protocol t ~protocol handler =
  Hashtbl.replace t.protocols protocol handler

(* Extension storage: type-safe via the "exception as existential" trick. *)
let set_extension t ~tag v = Hashtbl.replace t.extensions tag v
let find_extension t ~tag = Hashtbl.find_opt t.extensions tag

(* Part 3 of input: hand a datagram to its protocol handler. *)
let dispatch t h payload =
  match Hashtbl.find_opt t.protocols h.Ipv4.protocol with
  | Some handler -> handler t h payload
  | None -> t.stats.drops_no_proto <- t.stats.drops_no_proto + 1

(* The input hook's verdict.  The hook may have shrunk the payload:
   the header handed up gets the length of what is delivered, as
   [fragment_and_transmit] fixes it on output. *)
let deliver t = function
  | Pass (h, payload) ->
      let length = Ipv4.header_length h + String.length payload in
      let h = if h.total_length = length then h else { h with total_length = length } in
      dispatch t h payload
  | Drop _ -> t.stats.drops_hook <- t.stats.drops_hook + 1

let ip_input t raw =
  t.stats.packets_in <- t.stats.packets_in + 1;
  t.stats.bytes_in <- t.stats.bytes_in + String.length raw;
  match Ipv4.decode raw with
  | exception Ipv4.Bad_packet _ -> t.stats.drops_bad <- t.stats.drops_bad + 1
  | h, payload ->
      if not (Addr.equal h.dst t.addr || Addr.equal h.dst Addr.broadcast) then
        t.stats.drops_not_mine <- t.stats.drops_not_mine + 1
      else begin
        (* Part 2: reassembly. *)
        match Frag.add t.reassembler ~now:(now t) h payload with
        | None -> ()
        | Some (whole, payload) -> (
            (* [Frag.add] clears the fragment fields of [whole]: the
               arriving header tells a completed datagram from an
               unfragmented one. *)
            if h.frag_offset <> 0 || h.more_fragments then
              t.stats.reassembled <- t.stats.reassembled + 1;
            (* FBS receive hook: between reassembly and dispatch. *)
            match t.input_hook with
            | None -> dispatch t whole payload
            | Some hook -> hook whole payload t.deliver)
      end

let attach t medium =
  t.medium <- Some medium;
  Medium.attach medium ~addr:t.addr ~deliver:(fun raw -> ip_input t raw)

exception Send_error of string

(* Parts 2+3 of output: fix the length, fragment, and transmit each
   fragment — through the fault-injection link when one is attached. *)
let fragment_and_transmit t (h : Ipv4.header) payload =
  let medium =
    match t.medium with
    | Some m -> m
    | None -> raise (Send_error "host not attached to a network")
  in
  let h = { h with Ipv4.total_length = Ipv4.header_length h + String.length payload } in
  match Frag.fragment h payload ~mtu:t.mtu with
  | exception Frag.Cannot_fragment ->
      t.stats.send_errors <- t.stats.send_errors + 1;
      raise (Send_error "message too long (DF set)")
  | fragments ->
      if List.length fragments > 1 then
        t.stats.fragments_out <- t.stats.fragments_out + List.length fragments;
      List.iter
        (fun (fh, fp) ->
          let raw = Ipv4.encode fh fp in
          t.stats.packets_out <- t.stats.packets_out + 1;
          t.stats.bytes_out <- t.stats.bytes_out + String.length raw;
          let dst = link_dst t fh.Ipv4.dst in
          match t.link with
          | None -> Medium.transmit medium ~dst raw
          | Some link ->
              Link.transmit link ~deliver:(fun raw -> Medium.transmit medium ~dst raw) raw)
        fragments

(* The output hook's verdict.  The hook may have grown the payload:
   [fragment_and_transmit] fixes the length (as FBSSend() fixes the IP
   header after insertion).  Inside a burst a [Send_error] waits for the
   burst's end; from a later event it has no caller, and the count
   [fragment_and_transmit] made is all that is left of it. *)
let transmit t = function
  | Pass (h, payload) -> (
      try fragment_and_transmit t h payload with
      | Send_error _ as e ->
          if t.burst_depth > 0 && t.send_error = None then t.send_error <- Some e)
  | Drop _ -> t.stats.drops_hook <- t.stats.drops_hook + 1

let create ~name ~addr ?(mtu = 1500) engine =
  let rec t =
    {
      name;
      addr;
      engine;
      medium = None;
      link = None;
      mtu;
      protocols = Hashtbl.create 8;
      output_hook = None;
      input_hook = None;
      transmit = (fun v -> transmit t v);
      deliver = (fun v -> deliver t v);
      burst_depth = 0;
      burst_end = ignore;
      send_error = None;
      reassembler = Frag.create ();
      next_ident = 1;
      clock_offset = 0.0;
      subnet_prefix = None;
      gateway = None;
      stats = new_stats ();
      extensions = Hashtbl.create 8;
    }
  in
  t

let fresh_ident t =
  let id = t.next_ident in
  t.next_ident <- (t.next_ident + 1) land 0xffff;
  id

(* The burst-end function runs while the burst is still open, so the
   verdicts it brings hold their [Send_error] too; then the burst's first
   one is raised. *)
let end_burst t =
  if t.burst_depth = 1 then t.burst_end ();
  t.burst_depth <- t.burst_depth - 1;
  match t.send_error with
  | Some e when t.burst_depth = 0 ->
      t.send_error <- None;
      raise e
  | _ -> ()

let burst t f =
  t.burst_depth <- t.burst_depth + 1;
  match f () with
  | v ->
      end_burst t;
      v
  | exception e ->
      end_burst t;
      raise e

let ip_output t ?(dont_fragment = false) ~protocol ~dst payload =
  if t.medium = None then raise (Send_error "host not attached to a network");
  (* Part 1: header construction (route selection is trivial: one medium). *)
  let h =
    Ipv4.make ~ident:(fresh_ident t) ~dont_fragment ~protocol ~src:t.addr ~dst
      ~payload_length:(String.length payload) ()
  in
  (* A burst of one, opened by hand: [burst] would take a closure. *)
  t.burst_depth <- t.burst_depth + 1;
  match
    (* FBS send hook: between part 1 and fragmentation. *)
    match t.output_hook with
    | None -> fragment_and_transmit t h payload
    | Some hook -> hook h payload t.transmit
  with
  | () -> end_burst t
  | exception e ->
      end_burst t;
      raise e

