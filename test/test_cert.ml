(* Tests for the certificate substrate: public-value certificates, the
   authority, and certification-hierarchy chains. *)

open Fbsr_cert

let check = Alcotest.check
let rng = Fbsr_util.Rng.create 2024

let fresh_authority ?(validity = 1000.0) () =
  Authority.create ~validity ~rng ~bits:512 ()

(* --- Certificate --- *)

let test_certificate_roundtrip () =
  let ca = fresh_authority () in
  let cert =
    Authority.enroll ca ~now:100.0 ~subject:"host-a" ~group:"test-group"
      ~public_value:"public bytes here"
  in
  let cert' = Certificate.decode (Certificate.encode cert) in
  check Alcotest.string "subject" "host-a" cert'.Certificate.subject;
  check Alcotest.string "group" "test-group" cert'.Certificate.group;
  check Alcotest.string "public value" "public bytes here" cert'.Certificate.public_value;
  check Alcotest.bool "verifies after roundtrip" true
    (Certificate.verify ~ca_public:(Authority.public ca) ~now:100.0 cert' = Ok ())

let test_certificate_verify_errors () =
  let ca = fresh_authority () in
  let other_ca = fresh_authority () in
  let cert =
    Authority.enroll ca ~now:100.0 ~subject:"host-a" ~group:"g" ~public_value:"pv"
  in
  (match
     Certificate.verify ~ca_public:(Authority.public other_ca) ~now:100.0 cert
   with
  | Error Certificate.Bad_signature -> ()
  | _ -> Alcotest.fail "wrong CA accepted");
  (match Certificate.verify ~ca_public:(Authority.public ca) ~now:99999.0 cert with
  | Error (Certificate.Expired _) -> ()
  | _ -> Alcotest.fail "expired accepted");
  (match
     Certificate.verify ~ca_public:(Authority.public ca) ~now:100.0
       ~expected_subject:"host-b" cert
   with
  | Error (Certificate.Wrong_subject _) -> ()
  | _ -> Alcotest.fail "wrong subject accepted");
  (* Any field tamper breaks the signature. *)
  let tampered = { cert with Certificate.subject = "host-evil" } in
  match Certificate.verify ~ca_public:(Authority.public ca) ~now:100.0 tampered with
  | Error Certificate.Bad_signature -> ()
  | _ -> Alcotest.fail "tampered subject accepted"

let test_certificate_decode_garbage () =
  List.iter
    (fun raw ->
      match Certificate.decode raw with
      | _ -> Alcotest.failf "accepted %S" raw
      | exception Certificate.Bad_certificate _ -> ())
    [ ""; "\x00\x05ab" ]

(* --- Authority --- *)

let test_authority_directory () =
  let ca = fresh_authority () in
  check Alcotest.bool "empty" true (Authority.lookup ca "x" = None);
  let _ = Authority.enroll ca ~now:0.0 ~subject:"x" ~group:"g" ~public_value:"p" in
  check Alcotest.bool "found" true (Authority.lookup ca "x" <> None);
  check Alcotest.int "issued" 1 (Authority.issued ca);
  Authority.revoke ca "x";
  check Alcotest.bool "revoked" true (Authority.lookup ca "x" = None)

let () =
  Alcotest.run "cert"
    [
      ( "certificate",
        [
          Alcotest.test_case "roundtrip" `Quick test_certificate_roundtrip;
          Alcotest.test_case "verify errors" `Quick test_certificate_verify_errors;
          Alcotest.test_case "garbage" `Quick test_certificate_decode_garbage;
        ] );
      ("authority", [ Alcotest.test_case "directory" `Quick test_authority_directory ]);
    ]
