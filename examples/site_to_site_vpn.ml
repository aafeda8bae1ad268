(* Site-to-site VPN with FBS gateways (the paper's "host/gateway to
   host/gateway security", Section 7.1).

   Two office sites whose machines run NO security software at all.  Each
   site's gateway tunnels inter-site traffic (IP-in-IP) through its own
   FBS stack: zero-message keying between the gateways, flows at gateway
   granularity.  We sniff both a trusted site segment and the untrusted
   backbone to show where plaintext is and is not visible.

   Run with:  dune exec examples/site_to_site_vpn.exe *)

open Fbsr_netsim
open Fbsr_fbs_ip

let () =
  let eng = Engine.create () in
  let site_a = Medium.create eng in
  let site_b = Medium.create eng in
  let backbone = Medium.create eng in
  (* Key infrastructure lives on the backbone. *)
  let rng = Fbsr_util.Rng.create 2026 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let authority = Fbsr_cert.Authority.create ~rng ~bits:768 () in
  let ca_host = Host.create ~name:"ca" ~addr:(Addr.of_string "192.0.2.100") eng in
  Host.attach ca_host backbone;
  Udp_stack.install ca_host;
  let ca_server = Ca_server.install ~authority ca_host in
  let make_gateway ~outer_addr ~inside ~inside_addr =
    let host = Host.create ~name:("gw-" ^ outer_addr) ~addr:(Addr.of_string outer_addr) eng in
    Host.attach host backbone;
    Udp_stack.install host;
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:0.0 ~subject:outer_addr
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
    in
    let mkd =
      Mkd.create ~ca_addr:(Host.addr ca_host) ~ca_port:(Ca_server.port ca_server) host
    in
    let config =
      Stack.default_config ~bypass:(fun a -> Addr.equal a (Host.addr ca_host)) ()
    in
    let stack =
      Stack.install ~config ~private_value ~group
        ~ca_public:(Fbsr_cert.Authority.public authority)
        ~resolver:(Mkd.resolver mkd) host
    in
    (Gateway.create ~inside ~inside_addr:(Addr.of_string inside_addr) ~outer:host (),
     stack)
  in
  let gw_a, stack_a = make_gateway ~outer_addr:"192.0.2.1" ~inside:site_a ~inside_addr:"10.1.0.1" in
  let gw_b, _ = make_gateway ~outer_addr:"192.0.2.2" ~inside:site_b ~inside_addr:"10.2.0.1" in
  Gateway.add_peer gw_a ~network:(Addr.of_string "10.2.0.0") ~prefix:24
    ~gateway:(Addr.of_string "192.0.2.2");
  Gateway.add_peer gw_b ~network:(Addr.of_string "10.1.0.0") ~prefix:24
    ~gateway:(Addr.of_string "192.0.2.1");
  (* Ordinary machines — no FBS anywhere on them. *)
  let make_pc medium ~addr ~gw =
    let pc = Host.create ~name:addr ~addr:(Addr.of_string addr) eng in
    Host.attach pc medium;
    Host.set_gateway pc ~prefix:24 ~gateway:(Addr.of_string gw);
    Udp_stack.install pc;
    pc
  in
  let pc_a = make_pc site_a ~addr:"10.1.0.10" ~gw:"10.1.0.1" in
  let pc_b = make_pc site_b ~addr:"10.2.0.10" ~gw:"10.2.0.1" in
  (* Wiretaps. *)
  let backbone_sightings = ref 0 and site_sightings = ref 0 in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Medium.add_sniffer backbone (fun _ raw ->
      if contains raw "QUARTERLY-NUMBERS" then incr backbone_sightings);
  Medium.add_sniffer site_b (fun _ raw ->
      if contains raw "QUARTERLY-NUMBERS" then incr site_sightings);
  Udp_stack.listen pc_b ~port:7 (fun ~src ~src_port:_ d ->
      Printf.printf "[%s] received %S from %s\n" "10.2.0.10" d (Addr.to_string src));
  Udp_stack.send pc_a ~src_port:7 ~dst:(Host.addr pc_b) ~dst_port:7
    "QUARTERLY-NUMBERS: up and to the right";
  Engine.run eng;
  Printf.printf "\nwiretap on the untrusted backbone saw the plaintext %d times\n"
    !backbone_sightings;
  Printf.printf "wiretap on the trusted site segment saw it %d time(s)\n"
    !site_sightings;
  let c = Gateway.counters gw_a in
  Printf.printf "\ngateway A encapsulated %d datagram(s); " c.Gateway.encapsulated;
  let ec = Fbsr_fbs.Engine.counters (Stack.engine stack_a) in
  Printf.printf "its FBS stack encrypted %d and fetched %d certificate(s).\n"
    ec.Fbsr_fbs.Engine.encryptions
    (Fbsr_fbs.Keying.counters (Fbsr_fbs.Engine.keying (Stack.engine stack_a)))
      .Fbsr_fbs.Keying.certificate_fetches;
  Printf.printf
    "No host ran any security code: the gateways supplied it — the paper's \
     host/gateway\ngranularity, with FBS's zero-message keying between the sites.\n"
