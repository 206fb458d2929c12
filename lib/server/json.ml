(* The JSON codec of [Dynmos_json], under the name serve's clients have
   always reached it by. *)
include Dynmos_json.Json
