open Dynmos_faultsim

(* A checkpoint as builds before the pattern-unit domains engine wrote
   it: [mode sites], a done bitmap (here: site 0 done) and per-site
   detections, digests of the campaign [u] x [pats], and a valid
   checksum — so the only thing wrong with it is its mode. *)
let write_sites_mode ~path u pats =
  let n = Faultsim.n_sites u in
  let body =
    String.concat "\n"
      [
        "dynmos-checkpoint v1";
        "mode sites";
        "circuit " ^ Faultsim.circuit_digest u;
        "universe " ^ Faultsim.universe_digest u;
        "patterns " ^ Faultsim.patterns_digest pats;
        Printf.sprintf "n_sites %d" n;
        Printf.sprintf "n_patterns %d" (Array.length pats);
        "units_done 1";
        "first " ^ String.concat " " (List.init n (fun _ -> "-"));
        "done 1" ^ String.make (n - 1) '0';
      ]
    ^ "\n"
  in
  let oc = open_out_bin path in
  output_string oc (body ^ "checksum " ^ Digest.to_hex (Digest.string body) ^ "\n");
  close_out oc
