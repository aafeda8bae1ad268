(* The armor table: every built-in instance, one entry per suite.  A new
   leaf suite adds its module to this list and touches nothing else. *)

let all =
  [
    Armor_classic.make Suite.paper_md5_des;
    Armor_classic.make Suite.hmac_md5_des;
    Armor_classic.make Suite.sha1_des;
    Armor_classic.make Suite.des_mac_des;
    Armor_classic.make Suite.md5_des3;
    Armor_sha1ctr.armor;
    Armor_classic.make Suite.nop;
  ]

let of_suite (suite : Suite.t) =
  match
    List.find_opt
      (fun a ->
        let module A = (val a : Armor.S) in
        A.suite.Suite.id = suite.Suite.id)
      all
  with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Armors.of_suite: no armor for suite %d (%s)" suite.Suite.id
           (Suite.name suite))
