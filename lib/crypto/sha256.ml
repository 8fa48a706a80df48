(* FIPS 180-4 SHA-256 on native ints. Each 32-bit word lives in the low
   bits of an OCaml int and is masked back to 32 bits with
   [land 0xffffffff], so a compression allocates nothing. Hashing sits on
   the GMW mask path — every AND gate's mask bytes come from the
   counter-mode {!Prg} — and the earlier boxed-Int32 version was ~24% of
   an en-rounds query; hence the caller-owned scratch and the padding of
   only the last one or two blocks in place. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
    0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
    0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
    0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
    0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
    0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
    0xc67178f2;
  |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type scratch = {
  h : int array; (* chaining value, 8 words *)
  w : int array; (* message schedule as a 16-word ring *)
  block : bytes; (* the padded last one or two blocks, assembled in place *)
}

let scratch () = { h = Array.make 8 0; w = Array.make 16 0; block = Bytes.create 64 }

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land 0xffffffff

(* One 64-byte block of [src] at [off] folded into [st.h]. *)
let compress st src off =
  let w = st.w and h = st.h in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be src (off + (4 * t))) land 0xffffffff
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let wt =
      if t < 16 then w.(t)
      else begin
        let w15 = w.((t - 15) land 15) and w2 = w.((t - 2) land 15) in
        let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
        let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
        let v = (w.(t land 15) + s0 + w.((t - 7) land 15) + s1) land 0xffffffff in
        w.(t land 15) <- v;
        v
      end
    in
    let e' = !e and a' = !a in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = e' land !f lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + k.(t) + wt in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = a' land !b lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land 0xffffffff;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land 0xffffffff
  done;
  h.(0) <- (h.(0) + !a) land 0xffffffff;
  h.(1) <- (h.(1) + !b) land 0xffffffff;
  h.(2) <- (h.(2) + !c) land 0xffffffff;
  h.(3) <- (h.(3) + !d) land 0xffffffff;
  h.(4) <- (h.(4) + !e) land 0xffffffff;
  h.(5) <- (h.(5) + !f) land 0xffffffff;
  h.(6) <- (h.(6) + !g) land 0xffffffff;
  h.(7) <- (h.(7) + !hh) land 0xffffffff

(* Copy bytes [pos, pos + n) of [a ‖ b] to [dst] at 0. *)
let blit2 a b pos dst n =
  let la = Bytes.length a in
  let from_a = max 0 (min n (la - pos)) in
  if from_a > 0 then Bytes.blit a pos dst 0 from_a;
  if n > from_a then Bytes.blit b (pos + from_a - la) dst from_a (n - from_a)

let digest2_into st a b dst off =
  if off < 0 || off > Bytes.length dst - 32 then invalid_arg "Sha256.digest2_into: bad offset";
  let la = Bytes.length a in
  let len = la + Bytes.length b in
  Array.blit iv 0 st.h 0 8;
  let full = len / 64 in
  for i = 0 to full - 1 do
    let pos = 64 * i in
    if pos + 64 <= la then compress st a pos
    else if pos >= la then compress st b (pos - la)
    else begin
      blit2 a b pos st.block 64;
      compress st st.block 0
    end
  done;
  let block = st.block and rest = len - (64 * full) in
  blit2 a b (64 * full) block rest;
  Bytes.set block rest '\x80';
  if rest >= 56 then begin
    Bytes.fill block (rest + 1) (63 - rest) '\x00';
    compress st block 0;
    Bytes.fill block 0 56 '\x00'
  end
  else Bytes.fill block (rest + 1) (55 - rest) '\x00';
  Bytes.set_int64_be block 56 (Int64.of_int (8 * len));
  compress st block 0;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int st.h.(i))
  done

let digest2 a b =
  let out = Bytes.create 32 in
  digest2_into (scratch ()) a b out 0;
  out

let digest msg = digest2 msg Bytes.empty

let hex_digest s = Dstress_util.Hex.encode (digest (Bytes.of_string s))

let block_size = 64

let hmac ~key msg =
  let key = if Bytes.length key > block_size then digest key else key in
  let k0 = Bytes.make block_size '\x00' in
  Bytes.blit key 0 k0 0 (Bytes.length key);
  let xor_with c = Bytes.map (fun b -> Char.chr (Char.code b lxor c)) k0 in
  let ipad = xor_with 0x36 and opad = xor_with 0x5c in
  digest2 opad (digest2 ipad msg)
